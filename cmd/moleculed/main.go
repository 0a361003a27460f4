// Command moleculed serves a simulated Molecule platform over HTTP.
//
//	moleculed -addr :8080 -dpus 2 -fpgas 1
//
//	curl -X POST 'localhost:8080/deploy?fn=helloworld'
//	curl -X POST 'localhost:8080/invoke?fn=helloworld&body=1'
//	curl -X POST 'localhost:8080/chain?fns=mr-splitter,mr-mapper,mr-reducer'
//	curl 'localhost:8080/stats'
//
// With -cluster N it serves a boss/worker cluster of N machines instead,
// each built from the -dpus/-fpgas/-gpus shape:
//
//	moleculed -cluster 4 -dpus 2
//
//	curl -X POST 'localhost:8080/invoke?fn=pyaes'       # reply names the machine
//	curl -X POST 'localhost:8080/cluster/drain?worker=0'
//
// Routes, by mode:
//
//	both:            POST /deploy, /invoke, /chain; GET /experiments;
//	                 POST /experiments/{id}
//	one machine:     GET /functions, /stats, /metrics, /trace, /slo
//	-cluster N:      GET /cluster/stats; POST /cluster/drain, /cluster/undrain
//
// /invoke takes fn and the optional pu, bytes, n and body=1 on both; a
// deploy's slo needs the -slo engine, which only one machine has. SIGINT or
// SIGTERM shuts the server down and moleculed exits 0. Latencies in
// responses are virtual (simulated); outputs are real.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpd"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
)

// parseSLO parses "dur[@target]" specs like "50ms@0.999" (target defaults
// to 0.999).
func parseSLO(spec string) (obs.SLOConfig, error) {
	cfg := obs.SLOConfig{Target: 0.999}
	durPart, targetPart, hasTarget := strings.Cut(spec, "@")
	obj, err := time.ParseDuration(durPart)
	if err != nil || obj <= 0 {
		return cfg, fmt.Errorf("moleculed: bad -slo objective %q", durPart)
	}
	cfg.Objective = obj
	if hasTarget {
		t, err := strconv.ParseFloat(targetPart, 64)
		if err != nil || t <= 0 || t > 1 {
			return cfg, fmt.Errorf("moleculed: bad -slo target %q (want 0 < t <= 1)", targetPart)
		}
		cfg.Target = t
	}
	return cfg, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	clusterN := flag.Int("cluster", 0, "serve a boss/worker cluster of `N` machines instead of a single machine (each machine gets the -dpus/-fpgas/-gpus shape; routes gain /cluster/stats, /cluster/drain, /cluster/undrain)")
	dpus := flag.Int("dpus", 1, "Bluefield DPUs")
	fpgas := flag.Int("fpgas", 1, "FPGAs")
	gpus := flag.Int("gpus", 0, "GPUs")
	fnFile := flag.String("functions", "", "JSON file with custom function specs")
	trace := flag.Bool("trace", false, "record invocation spans; GET /trace serves Chrome trace_event JSON")
	metrics := flag.Bool("metrics", false, "record metrics; GET /metrics serves Prometheus text exposition")
	slo := flag.String("slo", "", "default latency objective as `dur[@target]`, e.g. \"50ms@0.999\"; enables GET /slo and the slo_* metric families (implies observability)")
	faultSpec := flag.String("fault", "", "fault plan `spec`, e.g. \"crash=1@2s+500ms,create-fail=0.01\" (see internal/faults)")
	faultSeed := flag.Uint64("fault-seed", 1, "PRNG seed for probabilistic faults")
	invokeTimeout := flag.Duration("invoke-timeout", 0, "per-attempt invocation timeout in virtual time (0 = no timeout)")
	retries := flag.Int("retries", 0, "max retries for transiently-failed invocations")
	retryBackoff := flag.Duration("retry-backoff", 0, "initial retry backoff in virtual time (doubles per retry; default 1ms)")
	zygoteTree := flag.Bool("zygote-tree", false, "grow package-aware zygote template forests per (runtime, PU): cold starts fork from the deepest pre-warmed template covering the function's package manifest and pay only residual imports")
	zygoteBudget := flag.Int("zygote-budget-mb", 0, "with -zygote-tree: page budget for specialized templates per forest in MB (0 = default, negative = root-only)")
	flag.Parse()

	opts := molecule.DefaultOptions()
	opts.Recovery = molecule.RecoveryOptions{
		InvokeTimeout: *invokeTimeout,
		MaxRetries:    *retries,
		RetryBackoff:  *retryBackoff,
	}
	opts.ZygoteTree = *zygoteTree
	opts.ZygoteBudgetMB = *zygoteBudget
	cfg := hw.Config{DPUs: *dpus, FPGAs: *fpgas, GPUs: *gpus}
	var s *httpd.Server
	var err error
	if *clusterN > 0 {
		if *faultSpec != "" || *slo != "" || *trace || *metrics || *fnFile != "" {
			log.Fatal("moleculed: -fault/-slo/-trace/-metrics/-functions are single-machine flags; not yet supported with -cluster")
		}
		if s, err = httpd.NewClusterServer(*clusterN, cfg, opts); err != nil {
			log.Fatal(err)
		}
		log.Printf("moleculed cluster listening on %s (%d machines, each DPUs=%d FPGAs=%d GPUs=%d)", *addr, *clusterN, *dpus, *fpgas, *gpus)
	} else {
		if s, err = httpd.NewServer(cfg, opts); err != nil {
			log.Fatal(err)
		}
		if *faultSpec != "" {
			if err := s.AttachFaults(*faultSeed, *faultSpec); err != nil {
				log.Fatal(err)
			}
			log.Printf("fault plan active (seed %d): %s", *faultSeed, *faultSpec)
		}
		if *trace || *metrics {
			s.EnableObservability()
			log.Printf("observability on: GET /metrics (Prometheus text), GET /trace (Chrome trace JSON)")
		}
		if *slo != "" {
			def, err := parseSLO(*slo)
			if err != nil {
				log.Fatal(err)
			}
			s.EnableSLO(def)
			log.Printf("slo engine on (default %v @ %.4g): GET /slo; per-deploy override via slo/slo_target", def.Objective, def.Target)
		}
		if *fnFile != "" {
			data, err := os.ReadFile(*fnFile)
			if err != nil {
				log.Fatal(err)
			}
			if err := s.LoadFunctions(data); err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded custom functions from %s", *fnFile)
		}
		log.Printf("moleculed listening on %s (DPUs=%d FPGAs=%d GPUs=%d)", *addr, *dpus, *fpgas, *gpus)
	}

	// Serve until SIGINT or SIGTERM, then shut down and return, so deferred
	// work (a -cover build's counters among it) runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		log.Fatal(err)
	case <-ctx.Done():
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	log.Printf("moleculed: shut down")
}
