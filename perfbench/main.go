// Command perfbench is the repository benchmark. It drives the real
// paceserve binary and cmd/genexperiments with seeded workloads, checks
// every output, and prints the end-to-end metrics BENCHMARK.json names;
// with --trace 1 it instead makes an in-process traced run that times the
// calls into each module and prints the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds the
// binaries from source first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the run
// record (seed, loop, clients, sample counts, failure accounting per
// phase, output digest and host fingerprint).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	outDir   string
}

// runLimit bounds a whole run: past it perfbench stops its child
// processes and fails rather than overrun its caller's deadline.
const runLimit = 170 * time.Second

func main() {
	watchdog := time.AfterFunc(runLimit, func() {
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(1)
	})
	code := run(os.Args[1:])
	watchdog.Stop()
	os.Exit(code)
}

func run(args []string) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	var res *result
	if o.trace {
		res, err = wl.traced(o)
	} else {
		res, err = wl.run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	line, err := res.finalLine(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, err := json.Marshal(map[string]any{"record": res.record(o, wl)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.writeRecord(o, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fmt.Println(string(rec))
	fmt.Println(string(line))
	return 0
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = in-process traced run printing the per-layer metrics")
	fs.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the built paceserve and genexperiments")
	fs.StringVar(&o.outDir, "out", ".bench_build/runs", "directory run records and span files are written to")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

// phaseCount counts the operations of one phase of a run.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// Phases of a run, in order. Setup starts the server and waits for
// readiness; warm-up is the pass that fits models and compiles shapes;
// measured is the timed phase; check is the correctness pass after it.
var phaseNames = []string{"setup", "warmup", "measured", "check"}

// result is what a workload run produces.
type result struct {
	phases   map[string]*phaseCount
	failures []string // first few failure messages
	metrics  map[string]float64
	info     map[string]any // workload-specific record fields
	spans    *tracer        // traced runs only
}

func newResult() *result {
	r := &result{
		phases:  map[string]*phaseCount{},
		metrics: map[string]float64{},
		info:    map[string]any{},
	}
	for _, p := range phaseNames {
		r.phases[p] = &phaseCount{}
	}
	return r
}

// maxFailureNotes bounds the failure messages kept for the record.
const maxFailureNotes = 8

// count records one operation's outcome in a phase.
func (r *result) count(phase string, err error) {
	pc := r.phases[phase]
	pc.Attempted++
	if err == nil {
		pc.Succeeded++
		return
	}
	pc.Failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, phase+": "+err.Error())
	}
}

func (r *result) totals() (attempted, failed int) {
	for _, pc := range r.phases {
		attempted += pc.Attempted
		failed += pc.Failed
	}
	return attempted, failed
}

// finalLine renders the result line with exactly the metrics of want.
func (r *result) finalLine(want []metricSpec) ([]byte, error) {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.totals()
	if attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// record assembles the run record printed before the result line.
func (r *result) record(o *options, wl *workload) map[string]any {
	attempted, failed := r.totals()
	rec := map[string]any{
		"workload":   wl.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"loop":       wl.loop,
		"clients":    wl.clients,
		"phases":     r.phases,
		"attempted":  attempted,
		"failed":     failed,
		"error_rate": float64(failed) / float64(max(attempted, 1)),
		"host":       hostFingerprint(),
	}
	if len(r.failures) > 0 {
		rec["failures"] = r.failures
	}
	for k, v := range r.info {
		rec[k] = v
	}
	return rec
}

// writeRecord keeps the record (and a traced run's spans) under the
// output directory.
func (r *result) writeRecord(o *options, rec []byte) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if err := os.WriteFile(filepath.Join(o.outDir, stem+".record.json"), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.writeFile(filepath.Join(o.outDir, stem+".spans.json"))
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setSuccessRate sets success_rate: succeeded over attempted operations,
// all phases together.
func (r *result) setSuccessRate() {
	attempted, failed := r.totals()
	r.metrics["success_rate"] = float64(attempted-failed) / float64(max(attempted, 1))
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
