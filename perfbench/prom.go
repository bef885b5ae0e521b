package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// promSeries maps a series (family name plus rendered label set, e.g.
// `http_requests_total{route="GET /api/table1",code="200"}`) to its
// value, as parsed from the Prometheus text exposition.
type promSeries map[string]float64

// parseProm parses the text exposition format: comment lines are
// skipped, every other line is a series name, optional {labels}, and a
// value.
func parseProm(text string) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so split at the last space.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds every series of a family whose label set contains all of
// the given label="value" fragments.
func (p promSeries) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range p {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// scrape holds one /metrics scrape of the router and the workers, and
// how far each worker's access log had grown.
type scrape struct {
	router, workers promSeries
	logPaths        []string
	logOffsets      []int64
}

func scrapeFleet(ctx context.Context, f *fleet) (scrape, error) {
	var s scrape
	var err error
	if s.router, err = fetchProm(ctx, f.base); err != nil {
		return s, err
	}
	s.workers = promSeries{}
	for i, b := range f.wbases {
		w, err := fetchProm(ctx, b)
		if err != nil {
			return s, err
		}
		for k, v := range w {
			s.workers[k] += v
		}
		st, err := os.Stat(f.workers[i].errPath)
		if err != nil {
			return s, err
		}
		s.logPaths = append(s.logPaths, f.workers[i].errPath)
		s.logOffsets = append(s.logOffsets, st.Size())
	}
	return s, nil
}

func fetchProm(ctx context.Context, base string) (promSeries, error) {
	code, body, err := get(ctx, http.DefaultClient, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, code)
	}
	return parseProm(string(body))
}

// meanMs is the mean of a histogram family between two scrapes, in
// milliseconds, or 0 when nothing was observed.
func meanMs(before, after promSeries, family string, labels ...string) float64 {
	n := after.sum(family+"_count", labels...) - before.sum(family+"_count", labels...)
	if n == 0 {
		return 0
	}
	return 1000 * (after.sum(family+"_sum", labels...) - before.sum(family+"_sum", labels...)) / n
}

// delta is a counter's growth between two scrapes.
func delta(before, after promSeries, family string) float64 {
	return after.sum(family) - before.sum(family)
}
