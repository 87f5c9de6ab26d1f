package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// layerUnits lists every per-layer metric with its unit. A traced
// invocation reports all of them; those of a layer the workload does
// not run (membudget on an in-memory run, dist on a local one) are 0.
var layerUnits = map[string]string{
	// Medians of the measured configuration's CLI runs and of the
	// calibrations beside them, in seconds: the raw numbers behind the
	// end-to-end ratios.
	"cli.wall_s":   "s",
	"cli.cpu_s":    "s",
	"calib.wall_s": "s",
	"calib.cpu_s":  "s",
	// From the in-process traced run (./tracer).
	"entity.read_tsv_s":                 "s",
	"datagen.generate_s":                "s",
	"blocking.job1_s":                   "s",
	"blocking.job1_map_out_records":     "count",
	"blocking.blocks":                   "count",
	"sched.generate_s":                  "s",
	"sched.trees":                       "count",
	"sched.scheduled_blocks":            "count",
	"core.resolve_s":                    "s",
	"mechanism.blocks":                  "count",
	"mechanism.busy_s":                  "s",
	"mechanism.self_s":                  "s",
	"match.calls":                       "count",
	"match.busy_s":                      "s",
	"match.mean_us":                     "us",
	"match.dup_ratio":                   "ratio",
	"mapreduce.job2_s":                  "s",
	"mapreduce.outside_mechanism_cpu_s": "s",
	"mapreduce.job2_shuffle_records":    "count",
	"mapreduce.job2_reduce_groups":      "count",
	"mapreduce.attempt_retries":         "count",
	"membudget.forced_spills":           "count",
	"membudget.spilled_bytes":           "bytes",
	"membudget.peak_bytes":              "bytes",
	"membudget.charged_bytes":           "bytes",
	"obs.traced_wall_s":                 "s",
	// Derived here from the measured runs.
	"obs.trace_overhead":       "ratio",
	"extsort.spill_overhead_s": "s",
	"dist.overhead_s":          "s",
	"dist.cpu_overhead_s":      "s",
	// From the dist master's -metrics-out file.
	"dist.leases_granted":    "count",
	"dist.leases_expired":    "count",
	"dist.rpc_calls":         "count",
	"dist.rpc_bytes_in":      "bytes",
	"dist.rpc_bytes_out":     "bytes",
	"dist.rpc_server_ms_p50": "ms",
	"dist.rpc_server_ms_p99": "ms",
}

// distCounters maps dist metrics to the master's Prometheus names.
var distCounters = map[string]string{
	"dist.leases_granted": "mr_dist_leases_granted",
	"dist.leases_expired": "mr_dist_leases_expired",
	"dist.rpc_calls":      "mr_dist_rpc_calls",
	"dist.rpc_bytes_in":   "mr_dist_rpc_bytes_in",
	"dist.rpc_bytes_out":  "mr_dist_rpc_bytes_out",
}

// layers produces the per-layer metrics from the traced run and from
// meds, the medians of each configuration's runs by configuration name
// (measured, and if they ran, reference and dist; see bench). A failed
// traced or metrics run is counted in the result, and its metrics stay
// 0.
func (b *bencher) layers(meds map[string]sample) map[string]metric {
	v := map[string]float64{}
	m := meds["measured"]
	v["cli.wall_s"], v["cli.cpu_s"] = m.wall, m.cpu
	v["calib.wall_s"], v["calib.cpu_s"] = m.cal.wall, m.cal.cpu
	// The reference configuration ran only if the workload's host flags
	// (the memory budget) set the measured one apart from it.
	ref, spills := meds["reference"]
	if !spills {
		ref = m
	}
	if tm, err := b.traced(); b.record("traced run", err) {
		for name, x := range tm {
			if _, ok := layerUnits[name]; ok {
				v[name] = x
			}
		}
		// The traced run executes the trace flags' configuration, which
		// is either the measured one or the reference one.
		base := ref.wall
		if slices.Equal(b.wl.TraceFlags, b.wl.HostFlags) {
			base = m.wall
		}
		v["obs.trace_overhead"] = v["obs.traced_wall_s"]/base - 1
	}
	if spills {
		v["extsort.spill_overhead_s"] = m.wall - ref.wall
	}
	if d, ok := meds["dist"]; ok {
		v["dist.overhead_s"] = d.wall - ref.wall
		v["dist.cpu_overhead_s"] = d.cpu - ref.cpu
		b.record("metrics run", b.distMetrics(v))
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}

// traced runs the tracer on the workload's first input, checks its
// pairs against the reference and returns the metrics it printed. Its
// spans are left in the run directory.
func (b *bencher) traced() (map[string]float64, error) {
	out := filepath.Join(b.dir, "traced.pairs.tsv")
	in := b.inputs[0]
	args := []string{"-input", in.data, "-truth", in.truth, "-kind", b.wl.Kind, "-n", strconv.Itoa(b.wl.Entities),
		"-seed", strconv.FormatInt(in.seed, 10), "-out", out, "-spans", filepath.Join(b.dir, "spans.jsonl")}
	args = append(append(args, b.wl.Flags...), b.wl.TraceFlags...)
	var stdout bytes.Buffer
	if _, err := b.exec(&stdout, filepath.Join(b.bin, "tracer"), args...); err != nil {
		return nil, err
	}
	if err := b.check(in, out); err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &m); err != nil {
		return nil, fmt.Errorf("tracer output: %w", err)
	}
	return m, nil
}

// distMetrics makes one more run of the dist configuration on the first
// input, with the master's -metrics-out file, and reads the dist layer's
// counters and RPC latency quantiles from it.
func (b *bencher) distMetrics(v map[string]float64) error {
	out := filepath.Join(b.dir, "metrics-run.pairs.tsv")
	prom := filepath.Join(b.dir, "master.prom")
	flags := append(append([]string{}, b.wl.Flags...), b.wl.DistFlags...)
	if _, err := b.proger(b.inputs[0], flags, out, "-metrics-out", prom); err != nil {
		return err
	}
	if err := b.check(b.inputs[0], out); err != nil {
		return err
	}
	samples, err := readProm(prom)
	if err != nil {
		return err
	}
	for name, key := range distCounters {
		v[name] = samples[key]
	}
	var buckets [][2]float64 // upper bound, cumulative count
	for key, x := range samples {
		le, ok := strings.CutPrefix(key, `mr_dist_rpc_server_ms_bucket{le="`)
		if !ok || le == `+Inf"}` {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			return fmt.Errorf("%s: bad bucket %q", prom, key)
		}
		buckets = append(buckets, [2]float64{bound, x})
	}
	slices.SortFunc(buckets, func(a, b [2]float64) int { return cmp.Compare(a[0], b[0]) })
	count := samples["mr_dist_rpc_server_ms_count"]
	v["dist.rpc_server_ms_p50"] = quantile(buckets, count, 0.50)
	v["dist.rpc_server_ms_p99"] = quantile(buckets, count, 0.99)
	return nil
}

// readProm reads the samples of a Prometheus text file by series name.
func readProm(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		x, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("%s: bad sample line %q", path, line)
		}
		out[name] = x
	}
	return out, sc.Err()
}

// quantile estimates the q-quantile of a histogram from its finite
// buckets, sorted by upper bound, and its total count, interpolating
// linearly within the bucket that holds it (Prometheus
// histogram_quantile). A quantile in the +Inf bucket is the last finite
// bound.
func quantile(buckets [][2]float64, count, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := q * count
	lo, below := 0.0, 0.0
	for _, bk := range buckets {
		if bk[1] >= rank && bk[1] > below {
			return lo + (bk[0]-lo)*(rank-below)/(bk[1]-below)
		}
		lo, below = bk[0], bk[1]
	}
	return lo
}
