package mapreduce

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"proger/internal/membudget"
	"proger/internal/obs"
)

// sumCombiner adds up "N" values into a single record.
func sumCombiner(key string, values [][]byte) [][]byte {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	return [][]byte{[]byte(strconv.Itoa(total))}
}

// sumReducer adds up "N" values and emits the total.
type sumReducer struct{ ReducerBase }

func (sumReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	ctx.Inc("reduce.values", int64(len(values)))
	emit.Emit(key, []byte(strconv.Itoa(total)))
	return nil
}

// onesMapper emits (word, "1") per word.
type onesMapper struct{ MapperBase }

func (onesMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	for _, w := range strings.Fields(string(rec.Value)) {
		emit.Emit(w, []byte("1"))
	}
	return nil
}

func combinerConfig(withCombiner bool) Config {
	cfg := Config{
		Name:           "combine-wordcount",
		NewMapper:      func() Mapper { return onesMapper{} },
		NewReducer:     func() Reducer { return sumReducer{} },
		NumMapTasks:    2,
		NumReduceTasks: 2,
		Cluster:        Cluster{Machines: 2, SlotsPerMachine: 2},
	}
	if withCombiner {
		cfg.Combine = sumCombiner
	}
	return cfg
}

func combinerInput() []KeyValue {
	var in []KeyValue
	for i := 0; i < 6; i++ {
		in = append(in, KeyValue{Key: fmt.Sprint(i), Value: []byte("alpha beta alpha gamma alpha")})
	}
	return in
}

func TestCombinerSameResults(t *testing.T) {
	plain, err := Run(combinerConfig(false), combinerInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(combinerConfig(true), combinerInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	get := func(r *Result) map[string]string {
		out := map[string]string{}
		for _, kv := range r.Output {
			out[kv.Key] = string(kv.Value)
		}
		return out
	}
	if !reflect.DeepEqual(get(plain), get(combined)) {
		t.Errorf("combiner changed results: %v vs %v", get(plain), get(combined))
	}
	want := map[string]string{"alpha": "18", "beta": "6", "gamma": "6"}
	if !reflect.DeepEqual(get(combined), want) {
		t.Errorf("counts = %v, want %v", get(combined), want)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	// The reduce side must see fewer values with the combiner on:
	// each map task emits ≤ 1 record per (key, partition) afterwards.
	plain, err := Run(combinerConfig(false), combinerInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(combinerConfig(true), combinerInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vp := plain.Counters.Get("reduce.values")
	vc := combined.Counters.Get("reduce.values")
	if vc >= vp {
		t.Errorf("combiner did not shrink shuffle: %d vs %d values", vc, vp)
	}
	// 2 map tasks × 3 keys → exactly 6 combined records.
	if vc != 6 {
		t.Errorf("combined shuffle carries %d values, want 6", vc)
	}
}

func TestCombinerDeterministicAcrossWorkers(t *testing.T) {
	cfg1 := combinerConfig(true)
	cfg1.Workers = 1
	cfg4 := combinerConfig(true)
	cfg4.Workers = 4
	r1, err := Run(cfg1, combinerInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(cfg4, combinerInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Output, r4.Output) || r1.End != r4.End {
		t.Error("combiner runs differ across worker counts")
	}
}

// panicMapper crashes on the second record.
type panicMapper struct {
	MapperBase
	n int
}

func (m *panicMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	m.n++
	if m.n == 2 {
		panic("injected map failure")
	}
	emit.Emit(rec.Key, rec.Value)
	return nil
}

func TestPanicInMapTaskBecomesError(t *testing.T) {
	cfg := combinerConfig(false)
	cfg.NewMapper = func() Mapper { return &panicMapper{} }
	_, err := Run(cfg, combinerInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic-derived error, got %v", err)
	}
}

// panicReducer crashes on a specific key.
type panicReducer struct{ ReducerBase }

func (panicReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	if key == "beta" {
		panic("injected reduce failure")
	}
	return nil
}

func TestPanicInReduceTaskBecomesError(t *testing.T) {
	cfg := combinerConfig(false)
	cfg.NewReducer = func() Reducer { return panicReducer{} }
	cfg.Workers = 4
	_, err := Run(cfg, combinerInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic-derived error, got %v", err)
	}
}

func TestCombinerEmptyPartitions(t *testing.T) {
	cfg := combinerConfig(true)
	res, err := Run(cfg, nil, 0)
	if err != nil {
		t.Fatalf("empty input with combiner: %v", err)
	}
	if len(res.Output) != 0 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestSpillingShuffleEquivalence(t *testing.T) {
	plain := wordCountConfig(2)
	spill := wordCountConfig(2)
	spill.MemBudget = membudget.New(64) // force spills
	spill.SpillDir = t.TempDir()
	spill.Metrics = obs.NewRegistry()
	a, err := Run(plain, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spill, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Error("spilling shuffle changed results")
	}
	if a.End != b.End {
		t.Error("spilling shuffle changed simulated timing (it must not)")
	}
	if spill.Metrics.Counter(CounterBudgetForcedSpills).Value() == 0 {
		t.Error("the budget forced no spills")
	}
}
