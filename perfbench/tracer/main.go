// Command tracer is the traced run of the repository benchmark. It runs
// one workload in-process, calling each layer's public functions in
// pipeline order, records a span around every call into a layer, and
// prints the per-layer metrics as one JSON object on standard output.
//
// The pipeline it times is the one the proger CLI runs on the same
// input: parse the TSVs, proger.Resolve, write the pairs TSV, build the
// recall curve. Resolve
// runs with a Mechanism decorator that times every ResolveBlock and
// every matcher call inside it. Before Resolve, two probes time the
// layers Resolve runs first: blocking.RunJob1 (Job 1) and the schedule
// generation sequence of core.Resolve (BuildForests, estimate.Prune,
// EstimateTree, sched.Generate). A probe of datagen times the
// generation of the input itself.
//
// Usage (flags as for cmd/proger, plus the input's generator settings):
//
//	tracer -input data.tsv -kind persons -n 25000 -seed 1 \
//	    -block name:soundex:1,2,4 -rule name:edit:0.55 ... \
//	    -out pairs.tsv -spans spans.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"syscall"

	"proger"
	"proger/internal/blocking"
	"proger/internal/core"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/sched"
)

// config is one traced run.
type config struct {
	input     string
	truth     string // ground-truth TSV; "" skips the recall report
	kind      string // datagen kind of the input: publications | persons
	n         int
	seed      int64
	blocks    []string
	rules     []string
	threshold float64
	mechanism string
	machines  int
	slots     int
	memBudget int64
	spillDir  string
}

// traced is a traced run's outcome.
type traced struct {
	metrics map[string]float64
	pairs   []byte // the pairs TSV, in cmd/proger's format
	spans   []span
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracer: ")
	cfg, out, spansOut, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	res, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if out != "" {
		if err := os.WriteFile(out, res.pairs, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if spansOut != "" {
		var buf bytes.Buffer
		if err := writeSpans(&buf, res.spans); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(spansOut, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	line, err := json.Marshal(res.metrics)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

// parseFlags reads the command line into a run config and the paths of
// the pairs and spans outputs.
func parseFlags(args []string) (cfg config, out, spansOut string, err error) {
	fs := flag.NewFlagSet("tracer", flag.ContinueOnError)
	var blocks, rules stringList
	fs.StringVar(&cfg.input, "input", "", "input dataset TSV")
	fs.StringVar(&cfg.truth, "truth", "", "ground-truth TSV, for the recall report proger prints with -truth")
	fs.StringVar(&cfg.kind, "kind", "", "datagen kind the input was generated with")
	fs.IntVar(&cfg.n, "n", 0, "entities the input was generated with")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the input was generated with")
	fs.Var(&blocks, "block", "blocking family, as for proger (repeatable)")
	fs.Var(&rules, "rule", "match rule, as for proger (repeatable)")
	fs.Float64Var(&cfg.threshold, "match-threshold", 0.75, "match threshold")
	fs.StringVar(&cfg.mechanism, "mechanism", "sn", "progressive mechanism: sn | psnm")
	fs.IntVar(&cfg.machines, "machines", 10, "simulated machines")
	fs.IntVar(&cfg.slots, "slots", 2, "task slots per machine")
	budget := fs.String("mem-budget", "", "memory budget, as for proger")
	fs.StringVar(&cfg.spillDir, "spill-dir", "", "spill directory for -mem-budget")
	fs.StringVar(&out, "out", "", "write the pairs TSV here")
	fs.StringVar(&spansOut, "spans", "", "write the spans here, one JSON object a line")
	if err = fs.Parse(args); err != nil {
		return
	}
	cfg.blocks, cfg.rules = blocks, rules
	cfg.memBudget, err = parseSize(*budget)
	return
}

// run executes the traced pipeline and derives the per-layer metrics
// from its spans and the run's own counters.
func run(cfg config) (*traced, error) {
	rec := newRecorder()
	m := map[string]float64{}
	sec := func(s span) float64 { return float64(s.dur()) / 1e9 }

	id, t := rec.begin("datagen.generate", 0)
	if err := generate(cfg.kind, cfg.n, cfg.seed); err != nil {
		return nil, err
	}
	m["datagen.generate_s"] = sec(rec.end(id, t))

	id, t = rec.begin("entity.read_tsv", 0)
	f, err := os.Open(cfg.input)
	if err != nil {
		return nil, err
	}
	ds, err := proger.ReadTSV(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", cfg.input, err)
	}
	read := rec.end(id, t)
	m["entity.read_tsv_s"] = sec(read)

	id, t = rec.begin("datagen.read_truth", 0)
	gt, err := readTruth(cfg.truth)
	if err != nil {
		return nil, err
	}
	truth := rec.end(id, t)

	fams, err := parseFamilies(ds.Schema, cfg.blocks)
	if err != nil {
		return nil, err
	}
	matcher, err := parseMatcher(ds.Schema, cfg.rules, cfg.threshold)
	if err != nil {
		return nil, err
	}
	mech, err := parseMechanism(cfg.mechanism)
	if err != nil {
		return nil, err
	}
	cluster := mapreduce.Cluster{Machines: cfg.machines, SlotsPerMachine: cfg.slots}
	policy := proger.CiteSeerXPolicy() // what cmd/proger uses for -input

	// Probe: Job 1 on its own.
	id, t = rec.begin("blocking.job1", 0)
	stats, job1, err := blocking.RunJob1(ds, fams, cluster, costmodel.Default(), 0)
	if err != nil {
		return nil, err
	}
	m["blocking.job1_s"] = sec(rec.end(id, t))
	m["blocking.job1_map_out_records"] = float64(job1.Counters[mapreduce.CounterMapOutRecords])
	m["blocking.blocks"] = float64(len(stats.Blocks))

	// Probe: schedule generation, the sequence core.Resolve runs.
	id, t = rec.begin("sched.generate", 0)
	schedule, trees, err := generateSchedule(ds, stats, fams, cluster, policy)
	if err != nil {
		return nil, err
	}
	m["sched.generate_s"] = sec(rec.end(id, t))
	m["sched.trees"] = float64(trees)
	m["sched.scheduled_blocks"] = float64(schedule.NumBlocks())

	// The pipeline itself, with the decorated mechanism.
	reg := proger.NewMetricsRegistry()
	id, t = rec.begin("core.resolve", 0)
	cpu0 := cpuSeconds()
	res, err := proger.Resolve(ds, proger.Options{
		Families:        fams,
		Matcher:         matcher,
		Mechanism:       &timedMechanism{inner: mech, rec: rec, parent: id},
		Policy:          policy,
		Machines:        cfg.machines,
		SlotsPerMachine: cfg.slots,
		Scheduler:       proger.SchedulerOurs,
		Metrics:         reg,
		MemBudget:       cfg.memBudget,
		SpillDir:        cfg.spillDir,
	})
	cpu := cpuSeconds() - cpu0
	resolve := rec.end(id, t)
	if err != nil {
		return nil, err
	}

	id, t = rec.begin("report.write_pairs", 0)
	pairs := formatPairs(res)
	write := rec.end(id, t)

	id, t = rec.begin("progress.recall_curve", 0)
	recallCurve(res, gt)
	recall := rec.end(id, t)

	spans := rec.finish()
	var blocks, calls, matches, busyNs, matchNs, selfNs int64
	for _, s := range spans {
		if s.Parent == resolve.ID {
			blocks++
			calls += s.Calls
			matches += s.Matches
			busyNs += s.dur()
			matchNs += s.MatchNs
			selfNs += s.Self
		}
	}
	if compared := res.Counters[core.CounterJob2Compared]; calls != compared {
		return nil, fmt.Errorf("decorator counted %d matcher calls, Result counts %s = %d", calls, core.CounterJob2Compared, compared)
	}
	m["core.resolve_s"] = sec(resolve)
	m["mechanism.blocks"] = float64(blocks)
	m["mechanism.busy_s"] = float64(busyNs) / 1e9
	m["mechanism.self_s"] = float64(selfNs) / 1e9
	m["match.calls"] = float64(calls)
	m["match.busy_s"] = float64(matchNs) / 1e9
	m["match.mean_us"] = ratio(float64(matchNs)/1e3, float64(calls))
	m["match.dup_ratio"] = ratio(float64(matches), float64(calls))
	m["mapreduce.job2_s"] = m["core.resolve_s"] - m["blocking.job1_s"] - m["sched.generate_s"]
	m["mapreduce.outside_mechanism_cpu_s"] = cpu - m["mechanism.busy_s"]
	m["mapreduce.job2_shuffle_records"] = float64(res.Job2.Counters[mapreduce.CounterMapOutRecords])
	m["mapreduce.job2_reduce_groups"] = float64(res.Job2.Counters[mapreduce.CounterReduceInGroups])
	m["mapreduce.attempt_retries"] = float64(reg.Counter(mapreduce.CounterTaskRetries).Value())
	m["membudget.forced_spills"] = float64(reg.Counter(proger.CounterBudgetForcedSpills).Value())
	m["membudget.spilled_bytes"] = float64(reg.Counter(proger.CounterBudgetSpilledBytes).Value())
	m["membudget.peak_bytes"] = reg.Gauge(proger.GaugeMemBudgetPeakBytes).Value()
	m["membudget.charged_bytes"] = reg.Gauge(proger.GaugeMemBudgetChargedBytes).Value()
	m["obs.traced_wall_s"] = sec(read) + sec(truth) + sec(resolve) + sec(write) + sec(recall)
	return &traced{metrics: m, pairs: pairs, spans: spans}, nil
}

func readTruth(path string) (*proger.GroundTruth, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gt, err := datagen.ReadGroundTruth(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return gt, nil
}

// recallCurve builds the duplicate-recall curve and reads the points
// cmd/proger prints for -truth: the final recall and 12 samples.
func recallCurve(res *proger.Result, gt *proger.GroundTruth) {
	if gt == nil {
		return
	}
	curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
	curve.FinalRecall()
	for i := 1; i <= 12; i++ {
		curve.RecallAt(res.TotalTime * proger.CostUnits(i) / 12)
	}
}

// generate runs the datagen generator the benchmark's set-up used and
// drops its output; only its time is of interest here.
func generate(kind string, n int, seed int64) error {
	switch kind {
	case "publications":
		datagen.Publications(datagen.DefaultPublications(n, seed))
	case "persons":
		datagen.PersonRecords(datagen.DefaultPeople(n, seed))
	default:
		return fmt.Errorf("unknown -kind %q (want publications or persons)", kind)
	}
	return nil
}

// generateSchedule repeats core.Resolve's schedule generation on Job 1's
// statistics with Resolve's defaults, returning the schedule and the
// number of trees it was built from.
func generateSchedule(ds *entity.Dataset, stats *blocking.Stats, fams proger.Families, cluster mapreduce.Cluster, policy estimate.Policy) (*sched.Schedule, int, error) {
	trees, err := stats.BuildForests(fams)
	if err != nil {
		return nil, 0, err
	}
	trees = estimate.Prune(trees)
	cost := costmodel.Default()
	est := estimate.NewEstimator(policy, cost, estimate.DefaultModel{}, ds.Len())
	for _, t := range trees {
		est.EstimateTree(t)
	}
	r := cluster.Slots()
	cv := sched.AutoCostVector(trees, r, 3)
	s, err := sched.Generate(trees, sched.Config{
		R:          r,
		CostVector: cv,
		Weights:    sched.LinearWeights(len(cv)),
		Batch:      4,
		Estimator:  est,
		Kind:       sched.Ours,
	})
	return s, len(trees), err
}

// formatPairs renders the result as cmd/proger writes it with -out.
func formatPairs(res *proger.Result) []byte {
	var b bytes.Buffer
	b.WriteString("#lo\thi\ttime\n")
	for _, ev := range res.Events {
		fmt.Fprintf(&b, "%d\t%d\t%.1f\n", ev.Pair.Lo, ev.Pair.Hi, ev.Time)
	}
	return b.Bytes()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
