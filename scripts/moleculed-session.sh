#!/usr/bin/env bash
# One scripted HTTP session against each moleculed mode:
#   bash scripts/moleculed-session.sh BIN
# BIN is a built moleculed. The script serves it on a fixed local port,
# first as one machine with -metrics -trace -slo 50ms (deploy with an
# objective, invoke with body=1, the MapReduce chain, then every read
# route), then as a 2-machine cluster (deploy, invoke, chain, stats, drain
# and undrain). It fails on any unexpected status, and requires moleculed
# to exit 0 on SIGTERM. `make moleculed-smoke` runs it on a plain build and
# scripts/prodcover.sh on a -cover build.
set -euo pipefail

bin="${1:?usage: moleculed-session.sh BIN}"
addr=127.0.0.1:18431
tmp="$(mktemp -d)"
pid=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT

fail() {
	echo "moleculed-session: $*" >&2
	echo "--- moleculed log:" >&2
	cat "$tmp/log" >&2
	exit 1
}

# start ARGS... launches moleculed and waits until it serves /experiments.
start() {
	"$bin" -addr "$addr" "$@" 2> "$tmp/log" &
	pid=$!
	for _ in $(seq 100); do
		if curl -sf -o /dev/null "http://$addr/experiments"; then
			return
		fi
		kill -0 "$pid" 2>/dev/null || fail "moleculed $* exited during startup"
		sleep 0.1
	done
	fail "moleculed $* did not serve /experiments within 10 s"
}

# req METHOD PATH WANT [SUBSTRING] checks the status and, if given, that
# the body contains SUBSTRING.
req() {
	local code
	code=$(curl -s -o "$tmp/body" -w '%{http_code}' -X "$1" "http://$addr$2")
	[ "$code" = "$3" ] || fail "$1 $2: status $code, want $3: $(cat "$tmp/body")"
	if [ $# -ge 4 ] && ! grep -qF -- "$4" "$tmp/body"; then
		fail "$1 $2: body lacks $4: $(cat "$tmp/body")"
	fi
}

# stop sends SIGTERM and requires exit status 0.
stop() {
	kill -TERM "$pid"
	local status=0
	wait "$pid" || status=$?
	pid=
	[ "$status" = 0 ] || fail "moleculed exited $status on SIGTERM, want 0"
}

deploy_chain() {
	for fn in mr-splitter mr-mapper mr-reducer; do
		req POST "/deploy?fn=$fn" 200 '"deployed"'
	done
	req POST '/chain?fns=mr-splitter,mr-mapper,mr-reducer' 200 '"edge_ms"'
}

start -metrics -trace -slo 50ms
req POST '/deploy?fn=helloworld&slo=5ms&slo_target=0.9' 200 '"deployed":"helloworld"'
req POST '/invoke?fn=helloworld&body=1' 200 'hello, heterogeneous world'
req POST '/invoke?fn=helloworld&pu=abc' 400
req POST '/invoke?fn=no-such' 400
deploy_chain
req GET /stats 200 '"invocations"'
req GET /functions 200 '"helloworld"'
req GET /metrics 200 'molecule_cold_starts_total'
req GET /trace 200 'gateway.request'
req GET /slo 200 '"objective_ms": 5,'
req GET /experiments 200 '"fig11a"'
req POST /experiments/fig11a 200 '"tables"'
req GET /cluster/stats 404
stop

start -cluster 2
req POST '/deploy?fn=pyaes' 200 '"deployed":"pyaes"'
req POST '/invoke?fn=pyaes' 200 '"machine"'
req POST '/deploy?fn=helloworld&slo=5ms' 400
deploy_chain
req GET /cluster/stats 200 '"machines"'
req POST '/cluster/drain?worker=0' 200 '"drained":0'
req POST '/cluster/undrain?worker=0' 200 '"undrained":0'
req POST '/cluster/drain?worker=9' 400
req GET /stats 404
stop

echo "moleculed-session: one machine and a 2-machine cluster served every route; both exited 0 on SIGTERM"
