package main

import (
	"fmt"
	"strconv"
	"strings"
)

// phase is one entry of an X-Phase-Timing header.
type phase struct {
	name string
	ms   float64
}

// parsePhaseTiming parses the X-Phase-Timing value both daemons emit, in
// Server-Timing syntax: "admission;dur=0.15, place;dur=0.01, proxy;dur=0.22".
// Durations are milliseconds. A name may repeat (one place and proxy per
// placement attempt). Parameters other than dur are ignored.
func parsePhaseTiming(v string) ([]phase, error) {
	if strings.TrimSpace(v) == "" {
		return nil, nil
	}
	var out []phase
	for _, entry := range strings.Split(v, ",") {
		params := strings.Split(strings.TrimSpace(entry), ";")
		p := phase{name: strings.TrimSpace(params[0])}
		if p.name == "" {
			return nil, fmt.Errorf("phase timing %q: empty phase name", v)
		}
		found := false
		for _, kv := range params[1:] {
			k, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || k != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("phase timing %q: %s: %v", v, p.name, err)
			}
			p.ms, found = ms, true
		}
		if !found {
			return nil, fmt.Errorf("phase timing %q: %s has no dur", v, p.name)
		}
		out = append(out, p)
	}
	return out, nil
}

// phaseSum totals the durations of every phase called name.
func phaseSum(ps []phase, name string) float64 {
	var t float64
	for _, p := range ps {
		if p.name == name {
			t += p.ms
		}
	}
	return t
}

// phaseTotal totals every phase.
func phaseTotal(ps []phase) float64 {
	var t float64
	for _, p := range ps {
		t += p.ms
	}
	return t
}
