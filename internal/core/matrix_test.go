package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"proger/internal/blocking"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/faults"
	"proger/internal/mapreduce"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// The invariant matrix pins the cardinal invariant end to end: every
// host knob — worker count, storage mode, injected faults — leaves the
// Result and the quality bytes identical to the Workers-1, in-memory,
// fault-free run, for each of the three resolvers. Trace bytes are
// identical to the Workers-1, in-memory run with the same fault
// configuration: fault injection legitimately adds attempt spans to
// the trace, so faulted and fault-free traces differ by design.

// matrixCell is one host configuration of the matrix.
type matrixCell struct {
	workers int
	budget  int64   // 0 = in memory
	rate    float64 // 0 = fault-free
	seed    int64
}

func (c matrixCell) String() string {
	storage := "memory"
	if c.budget > 0 {
		storage = fmt.Sprintf("budget=%dK", c.budget>>10)
	}
	fault := "none"
	if c.rate > 0 {
		fault = fmt.Sprintf("rate=%v/seed=%d", c.rate, c.seed)
	}
	return fmt.Sprintf("workers=%d/%s/fault=%s", c.workers, storage, fault)
}

// matrixOutcome is what one cell produces.
type matrixOutcome struct {
	res          *Result
	trace, qual  []byte
	forcedSpills int64
}

// matrixRun resolves ds with one resolver ("resolve", "compact", or
// "basic") at one cell, with tracing, metrics, and quality telemetry on.
func matrixRun(t *testing.T, ds *entity.Dataset, resolver string, c matrixCell) matrixOutcome {
	t.Helper()
	tr, reg, qrec := obs.New(), obs.NewRegistry(), quality.NewRecorder()
	var injector faults.Injector
	var retry mapreduce.RetryPolicy
	if c.rate > 0 {
		injector = faults.NewSeeded(c.seed, c.rate)
		retry = mapreduce.RetryPolicy{MaxRetries: 3, Speculation: true}
	}
	spillDir := ""
	if c.budget > 0 {
		spillDir = t.TempDir()
	}
	var (
		res *Result
		err error
	)
	if resolver == "basic" {
		res, err = ResolveBasic(ds, BasicOptions{
			Families:        blocking.CiteSeerXFamilies(ds.Schema),
			Matcher:         pubMatcher(),
			Mechanism:       mechanism.SN{},
			Window:          5,
			Machines:        2,
			SlotsPerMachine: 2,
			Workers:         c.workers,
			Faults:          injector,
			Retry:           retry,
			Trace:           tr,
			Metrics:         reg,
			Quality:         qrec,
			MemBudget:       c.budget,
			SpillDir:        spillDir,
		})
	} else {
		res, err = Resolve(ds, Options{
			Families:        blocking.CiteSeerXFamilies(ds.Schema),
			Matcher:         pubMatcher(),
			Mechanism:       mechanism.SN{},
			Policy:          estimate.CiteSeerXPolicy(),
			Machines:        2,
			SlotsPerMachine: 2,
			Scheduler:       sched.Ours,
			CompactShuffle:  resolver == "compact",
			Workers:         c.workers,
			Faults:          injector,
			Retry:           retry,
			Trace:           tr,
			Metrics:         reg,
			Quality:         qrec,
			MemBudget:       c.budget,
			SpillDir:        spillDir,
		})
	}
	if err != nil {
		t.Fatalf("%s %v: %v", resolver, c, err)
	}
	var trace, qual bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := qrec.Export(0).WriteJSON(&qual); err != nil {
		t.Fatal(err)
	}
	return matrixOutcome{
		res:          res,
		trace:        trace.Bytes(),
		qual:         qual.Bytes(),
		forcedSpills: reg.Counter(mapreduce.CounterBudgetForcedSpills).Value(),
	}
}

// TestInvariantMatrix runs Resolve, Compact, and Basic at Workers
// {1, 4} × storage {memory, 64K budget} × fault {none, rate 0.3 with
// three seeds}. The 64K budget sits well below the shuffle volume, so
// every budget cell must record forced spills: the disk path is
// covered, not just configured.
func TestInvariantMatrix(t *testing.T) {
	ds, _ := datagen.Publications(datagen.DefaultPublications(300, 5))
	faultCfgs := []matrixCell{{}, {rate: 0.3, seed: 1}, {rate: 0.3, seed: 2}, {rate: 0.3, seed: 3}}
	for _, resolver := range []string{"resolve", "compact", "basic"} {
		t.Run(resolver, func(t *testing.T) {
			ref := matrixRun(t, ds, resolver, matrixCell{workers: 1})
			for _, fc := range faultCfgs {
				// The first cell of each fault configuration — Workers 1, in
				// memory — is its trace reference.
				var traceRef []byte
				for _, workers := range []int{1, 4} {
					for _, budget := range []int64{0, 64 << 10} {
						c := matrixCell{workers: workers, budget: budget, rate: fc.rate, seed: fc.seed}
						got := ref
						if c != (matrixCell{workers: 1}) {
							got = matrixRun(t, ds, resolver, c)
						}
						if traceRef == nil {
							traceRef = got.trace
						} else if !bytes.Equal(got.trace, traceRef) {
							t.Errorf("%v: Chrome trace JSON diverged from the reference", c)
						}
						if !reflect.DeepEqual(got.res, ref.res) {
							t.Errorf("%v: Result diverged from the reference", c)
						}
						if !bytes.Equal(got.qual, ref.qual) {
							t.Errorf("%v: quality JSON diverged from the reference", c)
						}
						if budget > 0 && got.forcedSpills == 0 {
							t.Errorf("%v: the budget forced no spills", c)
						}
					}
				}
			}
		})
	}
}
