package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// paperSections are the experiment sections of EXPERIMENTS.md, in
// output order, each named by the header cmd/genexperiments prints once
// the section's experiment has finished. A section's time runs from the
// previous boundary's arrival to its own header's arrival; "" marks
// boundaries that only reset the clock (the cheap Section 5 note).
var paperSections = []struct{ header, name string }{
	{"## Table 1 ", "table1"},
	{"## Table 2 ", "table2"},
	{"## Table 3 ", "table3"},
	{"## Figure 8 ", "figure8"},
	{"## Figure 9 ", "figure9"},
	{"## Section 4 ablation", "ablation"},
	{"## Section 5 note", ""},
	{"## Extension — communication", "overlap"},
	{"## Extension — run-time", "healthcheck"},
}

// paperSetupRuns is how many times the paper run starts
// cmd/genexperiments to time its start-up (setup_s is the median).
const paperSetupRuns = 9

// runPaper regenerates EXPERIMENTS.md with the built cmd/genexperiments
// and requires the output to be byte-identical to the committed
// EXPERIMENTS.md. The regeneration is the one operation of the run; each
// experiment section is also timed as its header arrives, for the record.
func runPaper(o *options) (*result, error) {
	res := newResult()
	ref, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(o.binDir, "genexperiments")

	var setups []float64
	for i := 0; i < paperSetupRuns; i++ {
		d, err := timeFirstLine(bin)
		res.count("setup", err)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	t0 := time.Now()
	cmd := exec.Command(bin)
	var stderr tailBuffer
	stderr.max = 8 << 10
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	track(cmd.Process)
	defer untrack(cmd.Process)
	var out bytes.Buffer
	arrivals := map[string]float64{}
	rd := bufio.NewReader(pipe)
	for {
		line, err := rd.ReadBytes('\n')
		now := time.Since(t0).Seconds()
		out.Write(line)
		for _, s := range paperSections {
			if _, seen := arrivals[s.header]; !seen && bytes.HasPrefix(line, []byte(s.header)) {
				arrivals[s.header] = now
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, err
		}
	}
	runErr := cmd.Wait()
	wall := time.Since(t0).Seconds()
	if runErr != nil {
		runErr = fmt.Errorf("genexperiments: %v: %s", runErr, stderr.String())
	}

	perSection := map[string]float64{}
	prev := 0.0
	for _, sec := range paperSections {
		at, ok := arrivals[sec.header]
		if !ok {
			if runErr == nil {
				runErr = fmt.Errorf("genexperiments output lacks section %q", strings.TrimSpace(sec.header))
			}
			break
		}
		if sec.name != "" {
			perSection[sec.name] = at - prev
		}
		prev = at
	}
	res.count("measured", runErr)
	if runErr != nil {
		return nil, runErr
	}
	var checkErr error
	if !bytes.Equal(out.Bytes(), ref) {
		checkErr = fmt.Errorf("regenerated EXPERIMENTS.md differs from the committed file (%d vs %d bytes)", out.Len(), len(ref))
	}
	res.count("check", checkErr)

	st := cmd.ProcessState
	cpu := (st.UserTime() + st.SystemTime()).Seconds()
	rss := 0.0
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KB on Linux
	}
	maxErr, err := validationMaxErr(out.String())
	if err != nil {
		res.count("check", err)
	}
	rows := tableRows(out.String())
	lat := summarize([]float64{wall}, 100)

	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_rps"] = 1 / wall
	res.metrics["points_per_s"] = float64(rows) / wall
	res.metrics["latency_p50_ms"] = lat.P50Ms
	res.metrics["latency_tail_ms"] = lat.TailMs
	res.metrics["run_s"] = wall
	res.metrics["server_cpu_ms_per_op"] = cpu * 1e3
	res.metrics["peak_rss_mb"] = rss
	res.setSuccessRate()
	res.info["setup_runs_s"] = setups
	res.info["latency"] = lat
	res.info["sections_s"] = perSection
	res.info["measured"] = map[string]any{"wall_s": wall, "ops": 1, "table_rows": rows, "child_cpu_s": cpu}
	res.info["validation_max_err_pct"] = maxErr
	res.info["digest"] = sha256Hex(out.Bytes())
	res.info["digest_reference"] = "EXPERIMENTS.md"
	return res, nil
}

// timeFirstLine starts bin and returns the seconds until its first output
// line, then stops it.
func timeFirstLine(bin string) (float64, error) {
	cmd := exec.Command(bin)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	track(cmd.Process)
	defer untrack(cmd.Process)
	_, err = bufio.NewReader(pipe).ReadBytes('\n')
	d := time.Since(t0).Seconds()
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	if err != nil {
		return 0, fmt.Errorf("genexperiments printed nothing: %w", err)
	}
	return d, nil
}

var maxErrRE = regexp.MustCompile(`max \|error\| ([0-9.]+)% \(paper bound`)

// validationMaxErr is the largest max |error| of the three validation
// tables in an EXPERIMENTS.md text.
func validationMaxErr(doc string) (float64, error) {
	m := maxErrRE.FindAllStringSubmatch(doc, -1)
	if len(m) != 3 {
		return 0, fmt.Errorf("found %d validation table summaries, want 3", len(m))
	}
	worst := 0.0
	for _, g := range m {
		v, err := strconv.ParseFloat(g[1], 64)
		if err != nil {
			return 0, err
		}
		worst = max(worst, v)
	}
	return worst, nil
}

// tableRows counts the data rows of every markdown table in doc: each
// row is one evaluated configuration.
func tableRows(doc string) int {
	n := 0
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "|---"):
			n-- // the line before was the header
		case strings.HasPrefix(line, "| "):
			n++
		}
	}
	return n
}
