// Command perfbench is the repository benchmark. One invocation runs
// one workload: it builds the proger and datagen CLIs from the checkout,
// generates the workload's input from the seed, computes the reference
// output, then runs the proger CLI as a fresh OS process again and again
// for the given number of seconds, timing a fixed calibration task
// (calib.go) after each run. Every run's pairs TSV is checked byte for
// byte against the reference. The last line of standard output is one
// JSON object with the run counts and the metrics; everything else goes
// to standard error.
//
// With -trace 0 the metrics are the end-to-end ones: medians over the
// runs, the run times as multiples of the calibration's; with -trace 1
// they are the per-layer ones, from the same measured runs plus one
// in-process traced run (see ./tracer).
//
// Workloads are defined in workloads.json. Run from the checkout root:
//
//	sh perfbench/run.sh --workload pubs-local --seed 1 --seconds 45 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// suite is workloads.json.
type suite struct {
	// DefaultSeed is the seed at which each workload's reference output
	// must hash to its recorded ReferenceSHA256.
	DefaultSeed int64      `json:"default_seed"`
	Workloads   []workload `json:"workloads"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Kind and Entities are the datagen -kind and -n of the input.
	Kind     string `json:"kind"`
	Entities int    `json:"entities"`
	// Flags are the resolution flags every configuration of the
	// workload passes to proger; with no host flags they are the
	// local, in-memory reference configuration.
	Flags []string `json:"flags"`
	// HostFlags are added for the measured runs, TraceFlags for the
	// traced run (which is always in-process).
	HostFlags  []string `json:"host_flags"`
	TraceFlags []string `json:"trace_flags"`
	// DistFlags, if set, are added to Flags for a configuration on the
	// dist transport that only a traced invocation runs: it supplies the
	// dist layer's metrics.
	DistFlags []string `json:"dist_flags"`
	// ReferenceSHA256 lists the digests of the reference pairs TSVs of
	// the inputs generated from DefaultSeed, in order.
	ReferenceSHA256 []string `json:"reference_sha256"`
}

// inputsPerSeed is how many inputs an invocation generates from its
// seed; its runs cycle through them. Inputs of one size still differ
// in the work they make: of four 5000-publication seeds, the slowest
// took 14% longer in the CLI than the fastest. A median over runs on
// several inputs moves less from one seed to the next.
const inputsPerSeed = 3

// runTimeout bounds one run; a run taking longer is killed with its
// process group and counted as failed.
const runTimeout = 60 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	root := flag.String("root", ".", "repository checkout to build and benchmark")
	name := flag.String("workload", "", "workload name from workloads.json")
	seed := flag.Int64("seed", 1, "workload seed: the input is generated from it")
	seconds := flag.Float64("seconds", 10, "how long to keep starting measured runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an extra traced run")
	flag.Parse()

	res, err := bench(*root, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs one workload. An error means nothing could be measured
// (unknown workload, build failure, unusable set-up); a run that fails
// or writes wrong output is counted in the result instead.
func bench(root, name string, seed int64, seconds time.Duration, trace bool) (*result, error) {
	var s suite
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	var wl *workload
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			wl = &s.Workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := build(root, bin, trace); err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build", "runs", wl.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	b := &bencher{wl: wl, bin: bin, dir: dir, env: append(os.Environ(), "TMPDIR="+tmp), res: &result{Correct: true}}

	// Set-up and reference. Each input is generated once here; once
	// more before each measured run that reads it (into scratch files),
	// so that setup_s is a median over the same stretch of time as the
	// runs. Its reference output is that of the local, in-memory
	// configuration, computed once, outside the measured runs.
	var digests []string
	for k := int64(0); k < inputsPerSeed; k++ {
		in := &input{
			seed:  seed*inputsPerSeed + k,
			data:  filepath.Join(dir, fmt.Sprintf("input%d.tsv", k)),
			truth: filepath.Join(dir, fmt.Sprintf("truth%d.tsv", k)),
		}
		if err := b.setup(in, in.data, in.truth); err != nil {
			return nil, err
		}
		refPath := filepath.Join(dir, fmt.Sprintf("reference%d.pairs.tsv", k))
		if _, err := b.proger(in, wl.Flags, refPath); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		if in.ref, err = os.ReadFile(refPath); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(in.ref)
		digests = append(digests, hex.EncodeToString(sum[:]))
		b.inputs = append(b.inputs, in)
	}
	if seed == s.DefaultSeed && !slices.Equal(digests, wl.ReferenceSHA256) {
		fmt.Fprintf(os.Stderr, "perfbench: reference outputs at seed %d hash to %q, workloads.json records %q\n", seed, digests, wl.ReferenceSHA256)
		b.res.Correct = false
	}

	// The measured runs, each followed by a calibration (see calib.go).
	// A traced invocation also runs the reference configuration and, if
	// the workload has dist flags, the dist one, alternating them with
	// the measured one so that the overhead metrics compare medians
	// taken over the same stretch of time and the same inputs.
	configs := []runConfig{{name: "measured", flags: append(append([]string{}, wl.Flags...), wl.HostFlags...)}}
	if trace && len(wl.HostFlags) > 0 {
		configs = append(configs, runConfig{name: "reference", flags: wl.Flags})
	}
	if trace && len(wl.DistFlags) > 0 {
		configs = append(configs, runConfig{name: "dist", flags: append(append([]string{}, wl.Flags...), wl.DistFlags...)})
	}
	cal, err := calibrate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		c := &configs[i%len(configs)]
		if i >= len(configs) && time.Since(start) >= seconds {
			break
		}
		sm, ok := b.measure(b.inputs[i/len(configs)%len(b.inputs)], c.flags)
		before := cal
		if cal, err = calibrate(); err != nil {
			return nil, err
		}
		if ok {
			sm.cal = calSample{(before.wall + cal.wall) / 2, (before.cpu + cal.cpu) / 2}
			c.samples = append(c.samples, sm)
		}
	}
	ss := configs[0].samples
	if len(ss) == 0 {
		return b.res, nil // every run failed: correct is false, no metrics
	}
	if !trace {
		b.res.Metrics = map[string]metric{
			"wall_rel":    {median(field(ss, func(s sample) float64 { return s.wall / s.cal.wall })), "x"},
			"cpu_rel":     {median(field(ss, func(s sample) float64 { return s.cpu / s.cal.cpu })), "x"},
			"peak_rss_mb": {median(field(ss, func(s sample) float64 { return s.rssMiB })), "MiB"},
			"setup_s":     {median(b.setupTimes), "s"},
		}
		return b.res, nil
	}
	meds := map[string]sample{}
	for _, c := range configs {
		if len(c.samples) > 0 {
			meds[c.name] = sample{
				wall: median(field(c.samples, func(s sample) float64 { return s.wall })),
				cpu:  median(field(c.samples, func(s sample) float64 { return s.cpu })),
				cal: calSample{
					wall: median(field(c.samples, func(s sample) float64 { return s.cal.wall })),
					cpu:  median(field(c.samples, func(s sample) float64 { return s.cal.cpu })),
				},
			}
		}
	}
	b.res.Metrics = b.layers(meds)
	return b.res, nil
}

// runConfig is one configuration of the CLI an invocation measures, with
// the samples of its successful runs.
type runConfig struct {
	name    string
	flags   []string
	samples []sample
}

// build compiles the CLIs under test, and for a traced run the tracer,
// into bin.
func build(root, bin string, trace bool) error {
	steps := [][]string{{"go", "build", "-o", bin + string(filepath.Separator), "./cmd/proger", "./cmd/datagen"}}
	if trace {
		steps = append(steps, []string{"go", "-C", "perfbench", "build", "-o", filepath.Join(bin, "tracer"), "./tracer"})
	}
	for _, argv := range steps {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
		}
	}
	return nil
}

// bencher runs one workload's processes inside its run directory.
type bencher struct {
	wl     *workload
	bin    string
	dir    string
	env    []string
	inputs []*input
	res    *result
	run    int // measured runs so far, for log lines

	setupTimes []float64 // seconds per input generation
}

// input is one generated input of a workload.
type input struct {
	seed        int64       // the datagen seed
	data, truth string      // the input and truth TSVs
	sums        [2][32]byte // their digests at the first generation
	ref         []byte      // the reference pairs TSV
}

// setup generates in's input and truth TSVs into the given paths with
// the datagen CLI and records how long that took. Every generation must
// write the same bytes as the first.
func (b *bencher) setup(in *input, data, truth string) error {
	t0 := time.Now()
	_, err := b.exec(nil, filepath.Join(b.bin, "datagen"), "-kind", b.wl.Kind, "-n", strconv.Itoa(b.wl.Entities),
		"-seed", strconv.FormatInt(in.seed, 10), "-out", data, "-truth", truth)
	if err != nil {
		return fmt.Errorf("set-up: datagen: %w", err)
	}
	b.setupTimes = append(b.setupTimes, time.Since(t0).Seconds())
	var sums [2][32]byte
	for i, p := range []string{data, truth} {
		content, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sums[i] = sha256.Sum256(content)
	}
	if in.sums == [2][32]byte{} {
		in.sums = sums
	} else if sums != in.sums {
		return errors.New("set-up: datagen wrote different inputs for the same seed")
	}
	return nil
}

// proger runs the CLI once on in with the given flags, writing the
// pairs to out.
func (b *bencher) proger(in *input, flags []string, out string, extra ...string) (sample, error) {
	args := append([]string{"-input", in.data, "-truth", in.truth, "-out", out}, flags...)
	return b.exec(nil, filepath.Join(b.bin, "proger"), append(args, extra...)...)
}

// measure runs one set-up repetition of in and one checked CLI run on
// it, and reports whether both succeeded.
func (b *bencher) measure(in *input, flags []string) (sample, bool) {
	b.run++
	out := filepath.Join(b.dir, "run.pairs.tsv")
	var sm sample
	err := b.setup(in, filepath.Join(b.dir, "setup.tsv"), filepath.Join(b.dir, "setup.truth.tsv"))
	if err == nil {
		sm, err = b.proger(in, flags, out)
	}
	if err == nil {
		err = b.check(in, out)
	}
	if !b.record(fmt.Sprintf("run %d", b.run), err) {
		return sm, false
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s run %d: wall %.3f s, cpu %.3f s, peak rss %.1f MiB, input seed %d %v\n",
		b.wl.Name, b.run, sm.wall, sm.cpu, sm.rssMiB, in.seed, flags[len(b.wl.Flags):])
	return sm, true
}

// record counts one checked run and reports whether it succeeded.
func (b *bencher) record(what string, err error) bool {
	b.res.Attempted++
	if err == nil {
		return true
	}
	b.res.Failed++
	b.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: %s %s FAILED: %v\n", b.wl.Name, what, err)
	return false
}

// check compares a pairs TSV with in's reference, byte for byte.
func (b *bencher) check(in *input, path string) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, in.ref) {
		return fmt.Errorf("pairs output differs from the reference (%d vs %d bytes)", len(got), len(in.ref))
	}
	return nil
}

// sample is one process run: wall time from start to exit, and the
// user+system CPU and largest resident set of the process and every
// descendant it waited for.
type sample struct {
	wall, cpu, rssMiB float64
	cal               calSample // the mean of the calibrations either side
}

// exec runs one program in its own process group, with stdout going to
// stdout (discarded if nil) and stderr appended to the run directory's
// log. Whatever is left of the group afterwards is killed and waited
// out.
func (b *bencher) exec(stdout io.Writer, path string, args ...string) (sample, error) {
	logf, err := os.OpenFile(filepath.Join(b.dir, "stderr.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return sample{}, err
	}
	defer logf.Close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Dir, cmd.Env, cmd.Stdout, cmd.Stderr = b.dir, b.env, stdout, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return sample{}, err
	}
	err = cmd.Wait()
	wall := time.Since(t0).Seconds()
	reap(cmd.Process.Pid)
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w (see %s)", filepath.Base(path), err, logf.Name())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, errors.New("no resource usage for the finished process")
	}
	return sample{
		wall:   wall,
		cpu:    float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9,
		rssMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

// reap kills what is left of process group pgid and waits until it is
// gone. Processes of the group are not this process's children once
// their parent exited, so they are polled, not waited for.
func reap(pgid int) {
	for i := 0; i < 500; i++ {
		if err := syscall.Kill(-pgid, syscall.SIGKILL); errors.Is(err, syscall.ESRCH) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "perfbench: process group %d survived SIGKILL\n", pgid)
}

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
