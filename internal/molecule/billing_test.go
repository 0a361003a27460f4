package molecule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// refLedger is the per-entry ledger the aggregated Billing replaces: it
// keeps every charge and sums them on demand, in record order.
type refLedger []BillEntry

func (r refLedger) total() float64 {
	t := 0.0
	for _, e := range r {
		t += e.Charge
	}
	return t
}

func (r refLedger) totalFor(fn string) float64 {
	t := 0.0
	for _, e := range r {
		if e.Fn == fn {
			t += e.Charge
		}
	}
	return t
}

func (r refLedger) report() *metrics.Table {
	type agg struct {
		count    int
		billedMs int64
		charge   float64
	}
	type billKey struct {
		fn   string
		kind hw.PUKind
	}
	sums := make(map[billKey]*agg)
	for _, e := range r {
		k := billKey{e.Fn, e.Kind}
		a := sums[k]
		if a == nil {
			a = &agg{}
			sums[k] = a
		}
		a.count++
		a.billedMs += e.BilledMs
		a.charge += e.Charge
	}
	keys := make([]billKey, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fn != keys[j].fn {
			return keys[i].fn < keys[j].fn
		}
		return keys[i].kind < keys[j].kind
	})
	t := &metrics.Table{
		Title:  "Billing ledger (pay-as-you-go, 1ms granularity)",
		Header: []string{"function", "PU", "invocations", "billed ms", "charge"},
	}
	for _, k := range keys {
		a := sums[k]
		t.AddRow(k.fn, k.kind.String(), fmt.Sprintf("%d", a.count),
			fmt.Sprintf("%d", a.billedMs), fmt.Sprintf("%.2f", a.charge))
	}
	t.AddRow("TOTAL", "", fmt.Sprintf("%d", len(r)), "", fmt.Sprintf("%.2f", r.total()))
	return t
}

// TestBillingMatchesPerEntryLedger: for random Record sequences, the
// aggregated ledger's Count, Last, Total, TotalFor and Report equal, bit for
// bit, what the per-entry ledger computes by summing its entries in record
// order. The rates are inexact binary fractions, so a sum accumulated in
// any other order would differ in the last bits.
func TestBillingMatchesPerEntryLedger(t *testing.T) {
	fns := []string{"pyaes", "matmul", "mr-mapper", "helloworld"}
	kinds := []hw.PUKind{hw.CPU, hw.DPU, hw.FPGA, hw.GPU, hw.SmartSSD}
	rates := []float64{0.1, 0.3, 1.7, 2.9, 0.55}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBilling()
		var ref refLedger
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			fn := fns[rng.Intn(len(fns))]
			kind := kinds[rng.Intn(len(kinds))]
			d := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
			rate := rates[rng.Intn(len(rates))]
			b.Record(fn, kind, d, rate)
			ms := int64(math.Ceil(float64(d) / float64(time.Millisecond)))
			if ms < 1 {
				ms = 1
			}
			ref = append(ref, BillEntry{Fn: fn, Kind: kind, Duration: d, BilledMs: ms, Charge: float64(ms) * rate})
		}
		if b.Count() != len(ref) {
			t.Fatalf("seed %d: Count = %d, want %d", seed, b.Count(), len(ref))
		}
		last, ok := b.Last()
		if ok != (len(ref) > 0) || (ok && last != ref[len(ref)-1]) {
			t.Fatalf("seed %d: Last = %+v, %v; want the final entry", seed, last, ok)
		}
		if !same(b.Total(), ref.total()) {
			t.Fatalf("seed %d: Total = %v, want %v", seed, b.Total(), ref.total())
		}
		for _, fn := range append(fns, "never-billed") {
			if !same(b.TotalFor(fn), ref.totalFor(fn)) {
				t.Fatalf("seed %d: TotalFor(%q) = %v, want %v", seed, fn, b.TotalFor(fn), ref.totalFor(fn))
			}
		}
		for fn, f := range b.fns {
			for kind, a := range f.kinds {
				want := 0.0
				for _, e := range ref {
					if e.Fn == fn && e.Kind == hw.PUKind(kind) {
						want += e.Charge
					}
				}
				if !same(a.charge, want) {
					t.Fatalf("seed %d: charge for %s on %v = %v, want %v", seed, fn, hw.PUKind(kind), a.charge, want)
				}
			}
		}
		if got, want := b.Report(), ref.report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Report = %+v, want %+v", seed, got, want)
		}
	}
}

// TestChainBillsFPGANodes: a host → FPGA chain charges both functions, the
// FPGA one at its FPGA profile's price for its run.
func TestChainBillsFPGANodes(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "image-processing"); err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(p, "gzip-compression", DefaultProfile(hw.CPU), DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		fns := []string{"image-processing", "gzip-compression"}
		pins := []hw.PUID{rt.hostID, fpgaPins(rt, 1)[0]}
		before := rt.Billing().Count()
		if _, err := rt.InvokeChain(p, fns, ChainOptions{Placement: pins}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Billing().Count() - before; got != 2 {
			t.Fatalf("a host → FPGA chain billed %d entries, want 2", got)
		}
		e, _ := rt.Billing().Last()
		price := DefaultProfile(hw.FPGA).PricePerMs
		if e.Fn != fns[1] || e.Kind != hw.FPGA || e.Duration <= 0 || e.Charge != float64(e.BilledMs)*price {
			t.Errorf("FPGA entry %+v, want %s on FPGA charged %v per ms", e, fns[1], price)
		}
	})
}
