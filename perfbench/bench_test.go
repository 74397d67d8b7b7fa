package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and checks that each emits every metric the file names, with
// its unit, and that its output checks ran and passed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(&out, wl.Name, 7, 1, traced, "test", dir); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", wl.Name, traced, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					wl.Name, traced, got.Correct, got.Failed, got.Attempted, out.String())
			}
			if !strings.Contains(out.String(), "# "+wl.Name+" checks: ") {
				t.Errorf("%s traced=%v: no output checks reported", wl.Name, traced)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", wl.Name, traced, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, g.Unit, m.Unit)
				case !traced && g.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", wl.Name, m.Name, g.Value)
				}
			}
		}
	}
}
