package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSpecMatchesBenchmarkJSON pins the printed metric table — names,
// units, better-directions and bounds — to BENCHMARK.json.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	for _, tc := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", endToEnd, d.EndToEnd}, {"per_layer", perLayer, d.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", tc.name, len(tc.got), len(tc.want))
		}
		for i := range tc.got {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload the program has at a tiny size, untraced
// and traced, and checks the printed
// result: correct, and carrying exactly the declared metrics with their
// units, also in the human-readable table with their better-directions.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			var buf bytes.Buffer
			c := config{workload: name, seed: 7, seconds: 1.5, trace: trace, tiny: true, root: root}
			if err := run(c, &buf); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", name, trace, res.Correct, res.Attempted, buf.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), declared unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
				if !hasRow(lines, m) {
					t.Errorf("%s trace=%v: no table row for %s in %s, %s is better", name, trace, m.Name, m.Unit, m.Better)
				}
			}
		}
	}
}

// hasRow reports whether the printed table has m's row: its name, unit and
// better-direction.
func hasRow(lines []string, m metricSpec) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 6 && f[0] == m.Name && f[2] == m.Unit && f[3] == "("+m.Better {
			return true
		}
	}
	return false
}
