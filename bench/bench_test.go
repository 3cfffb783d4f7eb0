package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(suite) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(suite))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != suite[i].name {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, wl.Name, suite[i].name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the result line against BENCHMARK.json and the spans' nesting.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range suite {
		for _, trace := range []bool{false, true} {
			name := wl.name + "/untraced"
			want := endToEnd
			if trace {
				name, want = wl.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := config{workload: wl.name, seed: 7, seconds: 0.4, trace: trace, scale: 0.02}
				if trace {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				var stdout, stderr bytes.Buffer
				if code := run(cfg, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, stderr.Bytes(), stdout.Bytes())
				}
				checkResult(t, stdout.String(), want)
				if trace && wl.name != "fleet-zipf" {
					checkSpans(t, cfg.traceOut)
				}
			})
		}
	}
}

func checkResult(t *testing.T, out string, want map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   *bool             `json:"correct"`
		Attempted *int64            `json:"attempted"`
		Failed    *int64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Fatalf("result counts: %s", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", name)
		case m.Unit != unit:
			t.Errorf("metric %s: unit %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s: not finite", name)
		case !strings.Contains(out, "metric "+name+" "):
			t.Errorf("metric %s missing from the table", name)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	children := 0
	for i, s := range doc.Spans {
		if s.Parent < 0 {
			continue
		}
		children++
		p := doc.Spans[s.Parent]
		if s.Req != p.Req || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d %s [%d,%d] req %d is not inside its parent %s [%d,%d] req %d",
				i, s.Name, s.Start, s.End, s.Req, p.Name, p.Start, p.End, p.Req)
		}
	}
	if children == 0 {
		t.Fatalf("no child spans among %d", len(doc.Spans))
	}
}

// TestAnswerMatch pins the correctness gate: any same-bucket selection
// under the requested name, hit or miss, is right; anything else is wrong.
func TestAnswerMatch(t *testing.T) {
	own := []byte(`{"workload":"A","freq_mhz":1005,"cache_hit":false}` + "\n")
	other := []byte(`{"workload":"B","freq_mhz":990,"cache_hit":false}` + "\n")
	a := answer{bodies: [][]byte{
		renamed(own, "A", "A", false), renamed(own, "A", "A", true),
		renamed(other, "B", "A", false), renamed(other, "B", "A", true),
	}}
	cases := []struct {
		body string
		want int
	}{
		{`{"workload":"A","freq_mhz":1005,"cache_hit":false}` + "\n", 0},
		{`{"workload":"A","freq_mhz":1005,"cache_hit":true}` + "\n", 1},
		{`{"workload":"A","freq_mhz":990,"cache_hit":false}` + "\n", 2},
		{`{"workload":"A","freq_mhz":990,"cache_hit":true}` + "\n", 3},
		{`{"workload":"A","freq_mhz":975,"cache_hit":true}` + "\n", -1},
		{`{"workload":"B","freq_mhz":990,"cache_hit":true}` + "\n", -1},
	}
	for _, c := range cases {
		if got := a.match([]byte(c.body)); got != c.want {
			t.Errorf("match(%s) = %d, want %d", strings.TrimSpace(c.body), got, c.want)
		}
	}
}
