package molecule

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
)

// Billing is the pay-as-you-go ledger: invocations are charged per started
// millisecond (the 1ms granularity the paper cites from AWS) at the
// profile's PU-specific rate.
//
// Only totals are ever read, so the ledger keeps, per function, a running
// total and one aggregate per PU kind, plus one overall total, instead of
// an entry per invocation: its size follows the deployed functions, not
// the run length. Every sum is accumulated in record order, so it is
// bit-identical to summing the charges of the individual entries.
type Billing struct {
	fns   map[string]*fnBill // allocated on the first Record
	count int
	total float64
	last  BillEntry
}

// fnBill is one function's share of the ledger.
type fnBill struct {
	total float64
	kinds []billAgg // indexed by hw.PUKind; count 0 means never billed there
}

type billAgg struct {
	count    int
	billedMs int64
	charge   float64
}

// BillEntry is one charged invocation.
type BillEntry struct {
	Fn       string
	Kind     hw.PUKind
	Duration time.Duration
	BilledMs int64
	Charge   float64
}

// NewBilling returns an empty ledger.
func NewBilling() *Billing { return &Billing{} }

// Record charges one invocation of fn, found by name.
func (b *Billing) Record(fn string, kind hw.PUKind, d time.Duration, pricePerMs float64) {
	b.add(b.fn(fn), fn, kind, d, pricePerMs)
}

// fn returns the function's share of the ledger, making it on first use.
// The runtime keeps the pointer on the function's record, so a charge
// hashes no name.
func (b *Billing) fn(name string) *fnBill {
	if b.fns == nil {
		b.fns = make(map[string]*fnBill)
	}
	f := b.fns[name]
	if f == nil {
		f = &fnBill{}
		b.fns[name] = f
	}
	return f
}

// add charges one invocation of fn, whose share of the ledger is f.
func (b *Billing) add(f *fnBill, fn string, kind hw.PUKind, d time.Duration, pricePerMs float64) {
	ms := int64(math.Ceil(float64(d) / float64(time.Millisecond)))
	if ms < 1 {
		ms = 1
	}
	charge := float64(ms) * pricePerMs
	if int(kind) >= len(f.kinds) {
		f.kinds = append(f.kinds, make([]billAgg, int(kind)+1-len(f.kinds))...)
	}
	a := &f.kinds[kind]
	a.count++
	a.billedMs += ms
	a.charge += charge
	f.total += charge
	b.count++
	b.total += charge
	b.last = BillEntry{Fn: fn, Kind: kind, Duration: d, BilledMs: ms, Charge: charge}
}

// Count returns the number of charged invocations.
func (b *Billing) Count() int { return b.count }

// Last returns the most recent charge; ok is false on an empty ledger.
func (b *Billing) Last() (e BillEntry, ok bool) { return b.last, b.count > 0 }

// Total returns the summed charge.
func (b *Billing) Total() float64 { return b.total }

// Report renders the ledger as a per-function, per-PU summary table.
func (b *Billing) Report() *metrics.Table {
	fns := make([]string, 0, len(b.fns))
	for fn := range b.fns {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	t := &metrics.Table{
		Title:  "Billing ledger (pay-as-you-go, 1ms granularity)",
		Header: []string{"function", "PU", "invocations", "billed ms", "charge"},
	}
	for _, fn := range fns {
		for kind, a := range b.fns[fn].kinds {
			if a.count == 0 {
				continue
			}
			t.AddRow(fn, hw.PUKind(kind).String(), fmt.Sprintf("%d", a.count),
				fmt.Sprintf("%d", a.billedMs), fmt.Sprintf("%.2f", a.charge))
		}
	}
	t.AddRow("TOTAL", "", fmt.Sprintf("%d", b.count), "", fmt.Sprintf("%.2f", b.total))
	return t
}
