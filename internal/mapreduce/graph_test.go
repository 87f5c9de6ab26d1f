package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"proger/internal/faults"
	"proger/internal/membudget"
	"proger/internal/obs"
)

// ---- taskGraph unit tests ----

// TestTaskGraphRespectsDependencies runs a diamond a→{b,c}→d many
// times concurrently and asserts every observed completion order is a
// topological order of the graph.
func TestTaskGraphRespectsDependencies(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var mu sync.Mutex
		var order []string
		mark := func(name string) func() error {
			return func() error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			}
		}
		g := &taskGraph{}
		a := g.node(nodeKey{nodeMap, 0}, mark("a"))
		b := g.node(nodeKey{nodeShuffle, 0}, mark("b"))
		c := g.node(nodeKey{nodeShuffle, 1}, mark("c"))
		d := g.node(nodeKey{nodeReduce, 0}, mark("d"))
		g.edge(a, b)
		g.edge(a, c)
		g.edge(b, d)
		g.edge(c, d)
		if err := g.execute(4); err != nil {
			t.Fatal(err)
		}
		pos := map[string]int{}
		for i, name := range order {
			pos[name] = i
		}
		if len(pos) != 4 {
			t.Fatalf("ran %d nodes, want 4 (order %v)", len(pos), order)
		}
		for _, dep := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
			if pos[dep[0]] > pos[dep[1]] {
				t.Fatalf("node %q ran before its dependency %q (order %v)", dep[1], dep[0], order)
			}
		}
	}
}

// TestTaskGraphFailureStopsDispatch: once a node fails, no
// not-yet-dispatched node runs — including ready siblings still in the
// queue when the failure lands (workers=1 makes that deterministic).
func TestTaskGraphFailureStopsDispatch(t *testing.T) {
	var ran []string
	g := &taskGraph{}
	a := g.node(nodeKey{nodeMap, 0}, func() error {
		ran = append(ran, "a")
		return errors.New("boom")
	})
	b := g.node(nodeKey{nodeMap, 1}, func() error {
		ran = append(ran, "b")
		return nil
	})
	c := g.node(nodeKey{nodeReduce, 0}, func() error {
		ran = append(ran, "c")
		return nil
	})
	g.edge(a, c)
	g.edge(b, c)
	err := g.execute(1)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	if !reflect.DeepEqual(ran, []string{"a"}) {
		t.Errorf("ran %v, want only the failing node", ran)
	}
}

// TestTaskGraphPanicBecomesError: a panicking node is converted to an
// attributable task error, not a dead process.
func TestTaskGraphPanicBecomesError(t *testing.T) {
	g := &taskGraph{}
	g.node(nodeKey{nodeMap, 7}, func() error { panic("kaboom") })
	err := g.execute(2)
	if err == nil || !strings.Contains(err.Error(), "task 7 panicked: kaboom") {
		t.Fatalf("err = %v, want task-7 panic error", err)
	}
}

// TestTaskGraphFailureOrderDeterministic: failures collected from
// concurrently running nodes are always reported in (phase, task)
// order, no matter which finished first.
func TestTaskGraphFailureOrderDeterministic(t *testing.T) {
	want := "mapreduce: map task 1 failed\nmapreduce: reduce task 0 failed"
	for trial := 0; trial < 30; trial++ {
		g := &taskGraph{}
		// Both roots are ready immediately and run concurrently.
		g.node(nodeKey{nodeReduce, 0}, func() error {
			return errors.New("mapreduce: reduce task 0 failed")
		})
		g.node(nodeKey{nodeMap, 1}, func() error {
			return errors.New("mapreduce: map task 1 failed")
		})
		err := g.execute(2)
		if err == nil {
			t.Fatal("no error")
		}
		if got := err.Error(); got != want {
			// Both may not always fail (first failure stops dispatch only
			// for queued nodes; these two are usually both in flight). If
			// only one landed, it must still be a clean single error.
			if got != "mapreduce: map task 1 failed" && got != "mapreduce: reduce task 0 failed" {
				t.Fatalf("trial %d: err = %q", trial, got)
			}
		}
	}
}

// TestTaskGraphWorkerClamp: degenerate worker counts still complete.
func TestTaskGraphWorkerClamp(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 100} {
		n := 0
		g := &taskGraph{}
		g.node(nodeKey{nodeMap, 0}, func() error { n++; return nil })
		if err := g.execute(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != 1 {
			t.Fatalf("workers=%d: node ran %d times", workers, n)
		}
	}
	if err := (&taskGraph{}).execute(4); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
}

// TestTaskGraphJoinsAllNodeErrors: every concurrently failing node
// survives into the joined error, in task-index order. The barrier
// guarantees all n nodes are dispatched before any failure is
// recorded, so stop-dispatch cannot skip any of them.
func TestTaskGraphJoinsAllNodeErrors(t *testing.T) {
	const n = 4
	sentinels := make([]error, n)
	for i := range sentinels {
		sentinels[i] = fmt.Errorf("task-%d-boom", i)
	}
	var barrier sync.WaitGroup
	barrier.Add(n)
	g := &taskGraph{}
	for i := n - 1; i >= 0; i-- { // inserted in reverse: order must come from the key
		g.node(nodeKey{nodeMap, i}, func() error {
			barrier.Done()
			barrier.Wait()
			return sentinels[i]
		})
	}
	err := g.execute(n)
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	for _, s := range sentinels {
		if !errors.Is(err, s) {
			t.Errorf("joined error lost %v", s)
		}
	}
	msg := err.Error()
	if strings.Index(msg, "task-0-boom") > strings.Index(msg, "task-3-boom") {
		t.Errorf("errors not in task-index order: %q", msg)
	}
}

// TestTaskGraphCompletesAllWithoutError: many independent nodes on a
// pool smaller than the graph all run exactly once.
func TestTaskGraphCompletesAllWithoutError(t *testing.T) {
	const n = 257
	var executed atomic.Int64
	g := &taskGraph{}
	for i := 0; i < n; i++ {
		g.node(nodeKey{nodeMap, i}, func() error {
			executed.Add(1)
			return nil
		})
	}
	if err := g.execute(8); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != n {
		t.Errorf("executed %d of %d nodes", executed.Load(), n)
	}
}

// ---- concurrent schedules ↔ the phase-barriered serial reference ----
//
// With Workers 1 the graph's FIFO ready queue runs every map task, then
// every shuffle, then every reduce: a phase-barriered serial execution.
// It is the reference every concurrent (pipelined) schedule must
// reproduce byte for byte.

// pipelineVariants returns named config mutations covering the job
// shapes and storage modes: plain, the combiner path, the budget spill
// path, and skewed task counts.
func pipelineVariants() map[string]func(*Config) {
	return map[string]func(*Config){
		"plain":       func(cfg *Config) {},
		"combiner":    func(cfg *Config) { cfg.Combine = sumCombiner },
		"spill":       func(cfg *Config) { cfg.MemBudget = membudget.New(64) },
		"singlemap":   func(cfg *Config) { cfg.NumMapTasks = 1 },
		"manyreduce":  func(cfg *Config) { cfg.NumReduceTasks = 5 },
		"singleslots": func(cfg *Config) { cfg.Cluster = Cluster{Machines: 1, SlotsPerMachine: 1} },
	}
}

// TestPipelinedMatchesBarrier: the full Result — output bytes,
// timestamps, counters, schedule, slot assignments — must be identical
// between the Workers-1 serial reference and every worker count, for
// every variant.
func TestPipelinedMatchesBarrier(t *testing.T) {
	for name, mutate := range pipelineVariants() {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				run := func(workers int) *Result {
					cfg := wordCountConfig(workers)
					mutate(&cfg)
					if cfg.MemBudget != nil {
						cfg.SpillDir = t.TempDir()
					}
					res, err := Run(cfg, wordCountInput(), 0)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					return res
				}
				if ref, got := run(1), run(workers); !reflect.DeepEqual(ref, got) {
					t.Errorf("Result diverged from the serial reference:\nserial: %+v\ngot:    %+v", ref, got)
				}
			})
		}
	}
}

// TestPipelinedMatchesBarrierUnderFaults extends the equivalence to
// the attempt runtime: with deterministic fault injection, retries,
// and speculation active, every worker count must produce the
// identical Result — which must also equal the fault-free one.
func TestPipelinedMatchesBarrierUnderFaults(t *testing.T) {
	run := func(rate float64, workers int) *Result {
		cfg := wordCountConfig(workers)
		if rate > 0 {
			cfg.Faults = faults.NewSeeded(11, rate)
			cfg.Retry = RetryPolicy{MaxRetries: 3, Speculation: true}
		}
		res, err := Run(cfg, wordCountInput(), 0)
		if err != nil {
			t.Fatalf("rate=%v workers=%d: %v", rate, workers, err)
		}
		return res
	}
	ref := run(0, 1)
	for _, rate := range []float64{0, 0.5} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("rate=%v/workers=%d", rate, workers), func(t *testing.T) {
				if got := run(rate, workers); !reflect.DeepEqual(ref, got) {
					t.Errorf("Result diverged under faults:\nserial: %+v\ngot:    %+v", ref, got)
				}
			})
		}
	}
}

// TestPipelinedTraceMatchesBarrier: the simulated-clock Chrome trace
// export must be byte-identical across worker counts — concurrent host
// interleaving must leave no fingerprint on the exported timeline.
func TestPipelinedTraceMatchesBarrier(t *testing.T) {
	export := func(workers int) []byte {
		cfg := wordCountConfig(workers)
		cfg.Trace = obs.New()
		cfg.Metrics = obs.NewRegistry()
		if _, err := Run(cfg, wordCountInput(), 0); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := cfg.Trace.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ref := export(1)
	for _, workers := range []int{4, 8} {
		if got := export(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: trace JSON differs from the serial reference", workers)
		}
	}
}

// TestPipelinedErrorPropagates: task errors surface through the graph
// with the task's own wrapping.
func TestPipelinedErrorPropagates(t *testing.T) {
	cfg := wordCountConfig(4)
	cfg.NewMapper = func() Mapper { return failingMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want map failure", err)
	}
}
