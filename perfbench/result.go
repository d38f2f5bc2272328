package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricName is the grammar every metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// tally counts operations (whole runs, cross-checks) and their failures.
// log receives every failure with its cause, and the timed loop's per-run
// wall times.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// note records one attempted operation; a non-nil err marks it failed.
func (t *tally) note(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// metrics collects named values; set panics on a malformed or repeated
// name, since either would be a bug in the benchmark itself.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("bad metric name %q", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("metric %q set twice", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// writeReport prints the human-readable table followed by the JSON line.
func writeReport(w io.Writer, t *tally, m metrics) error {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	line, err := json.Marshal(report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
