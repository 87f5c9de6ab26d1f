package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"proger/internal/datagen"
	"proger/internal/entity"
)

// testEntities keeps each workload's input small enough for a unit test.
const testEntities = 1500

// TestTracedRunMatchesCLI runs every benchmark workload at a small size
// through the proger CLI in its measured configuration (and in its dist
// configuration, if it has one), and in-process through the traced run
// with the decorated mechanism. The pairs TSVs must be byte-identical,
// and run itself fails unless the decorator's matcher calls equal the
// Result's job2.compared counter.
func TestTracedRunMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the proger CLI")
	}
	data, err := os.ReadFile("../workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var suite struct {
		Workloads []struct {
			Name       string   `json:"name"`
			Kind       string   `json:"kind"`
			Flags      []string `json:"flags"`
			HostFlags  []string `json:"host_flags"`
			TraceFlags []string `json:"trace_flags"`
			DistFlags  []string `json:"dist_flags"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	proger := filepath.Join(dir, "proger")
	if out, err := exec.Command("go", "build", "-o", proger, "proger/cmd/proger").CombinedOutput(); err != nil {
		t.Fatalf("building proger: %v\n%s", err, out)
	}
	const seed = 3
	for _, wl := range suite.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			input := filepath.Join(dir, wl.Name+".tsv")
			truth := filepath.Join(dir, wl.Name+".truth.tsv")
			writeInput(t, input, truth, wl.Kind, seed)

			cli := func(out string, hostFlags []string) []byte {
				args := append([]string{"-input", input, "-truth", truth, "-out", out}, wl.Flags...)
				cmd := exec.Command(proger, append(args, hostFlags...)...)
				cmd.Env = append(os.Environ(), "TMPDIR="+dir)
				if msg, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("proger %v: %v\n%s", hostFlags, err, msg)
				}
				pairs, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				return pairs
			}
			want := cli(filepath.Join(dir, wl.Name+".pairs.tsv"), wl.HostFlags)
			if len(wl.DistFlags) > 0 {
				if got := cli(filepath.Join(dir, wl.Name+".dist.pairs.tsv"), wl.DistFlags); !bytes.Equal(got, want) {
					t.Errorf("proger %v wrote %d bytes of pairs, %v %d; they differ", wl.DistFlags, len(got), wl.HostFlags, len(want))
				}
			}

			args := []string{"-input", input, "-truth", truth, "-kind", wl.Kind,
				"-n", strconv.Itoa(testEntities), "-seed", strconv.Itoa(seed), "-spill-dir", dir}
			cfg, _, _, err := parseFlags(append(append(args, wl.Flags...), wl.TraceFlags...))
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.pairs, want) {
				t.Errorf("traced run wrote %d bytes of pairs, the CLI %d; they differ", len(got.pairs), len(want))
			}
			if got.metrics["match.calls"] == 0 || got.metrics["mechanism.blocks"] == 0 {
				t.Errorf("decorator saw no work: %v", got.metrics)
			}
		})
	}
}

// writeInput writes a generated dataset and its ground truth as the
// datagen CLI does.
func writeInput(t *testing.T, path, truthPath, kind string, seed int64) {
	t.Helper()
	var (
		ds *entity.Dataset
		gt *datagen.GroundTruth
	)
	switch kind {
	case "publications":
		ds, gt = datagen.Publications(datagen.DefaultPublications(testEntities, seed))
	case "persons":
		ds, gt = datagen.PersonRecords(datagen.DefaultPeople(testEntities, seed))
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	var data, truth bytes.Buffer
	if err := entity.WriteTSV(&data, ds); err != nil {
		t.Fatal(err)
	}
	if err := datagen.WriteGroundTruth(&truth, gt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truthPath, truth.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{Start: 0, End: 10},  // starts before the parent
		{Start: 5, End: 20},  // overlaps the first
		{Start: 30, End: 40}, // disjoint
		{Start: 35, End: 38}, // nested in the third
		{Start: 95, End: 200},
	}
	if got := covered(2, 100, spans); got != (20-2)+(40-30)+(100-95) {
		t.Errorf("covered = %d, want 33", got)
	}
	if got := covered(50, 60, spans); got != 0 {
		t.Errorf("covered over a gap = %d, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{ID: 1, Name: "core.resolve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mechanism.resolve_block", Start: 10, End: 50, MatchNs: 30},
		{ID: 3, Parent: 1, Name: "mechanism.resolve_block", Start: 40, End: 60, MatchNs: 5},
	}
	got := rec.finish()
	for i, want := range []int64{100 - 50, 40 - 30, 20 - 5} {
		if got[i].Self != want {
			t.Errorf("span %d self = %d, want %d", got[i].ID, got[i].Self, want)
		}
	}
}
