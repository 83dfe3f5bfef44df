package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ddg"
	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/workload"
)

// The paper's two evaluation machines: Figure 2's 2-cluster machine with
// 32 registers and a 1-cycle bus, and Figure 3's 4-cluster machine with 64
// registers and a 2-cycle bus.
func paperMachines() []*machine.Config {
	return []*machine.Config{
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 64, 1, 2),
	}
}

// request is one (loop, machine) scheduling job with its /v1/schedule body.
type request struct {
	bench  string // corpus benchmark the loop belongs to
	g      *ddg.Graph
	weight float64
	m      *machine.Config
	mi     int // index of m in paperMachines
	text   string
	body   []byte
}

// inputs are everything the workloads send, derived from the seed alone.
type inputs struct {
	seed int64
	// spec holds the SPECfp95 corpus on both machines, machine-major, in
	// canonical order: the compile pass, the pre-warm set and the Zipf
	// population of serve and fleet.
	spec []*request
	// order is the seed's permutation of spec: compile's visiting order.
	order []int
	// dsp holds the DSP corpus on both machines, the templates the fresh
	// loops of serve and fleet are instantiated from.
	dsp []*request
	// freshOrder is the seed's permutation of dsp, cycled by fresh loops.
	freshOrder []int
	// seq is the request sequence of serve and fleet: an index into spec,
	// or freshSlot at every freshEvery-th position.
	seq []int32
}

const (
	// freshEvery puts a never-seen loop at every 50th sequence position.
	freshEvery = 50
	freshSlot  = -1
	// zipfS is the skew of the warm request popularity.
	zipfS = 1.1
)

// seqPerSecond sizes the request sequence: more positions per measured
// second than any client pair on two cores completes.
const seqPerSecond = 40000

// newInputs generates the corpora, the request bodies and, for the HTTP
// workloads (seqLen > 0), the request sequence. Seed 0 keeps the canonical
// orders and Zipf seed 1; every seed draws the same populations — the
// committed SPECfp95 and DSP corpora — so a seed changes which request
// comes when, never how much work a run holds (see README.md, "Seeds").
func newInputs(seed int64, seqLen int) (*inputs, error) {
	in := &inputs{seed: seed}
	var err error
	if in.spec, err = corpusRequests(workload.SPECfp95()); err != nil {
		return nil, err
	}
	if in.dsp, err = corpusRequests(workload.DSP()); err != nil {
		return nil, err
	}
	in.order = permutation(len(in.spec), seed, 0)
	in.freshOrder = permutation(len(in.dsp), seed, 1)
	if seqLen > 0 {
		in.seq = zipfSequence(seqLen, len(in.spec), seed+1)
	}
	return in, nil
}

func corpusRequests(bms []*workload.Benchmark) ([]*request, error) {
	var out []*request
	for mi, m := range paperMachines() {
		for _, bm := range bms {
			for _, l := range bm.Loops {
				var text bytes.Buffer
				if err := ddgio.Write(&text, l.G); err != nil {
					return nil, err
				}
				body, err := scheduleBody(text.String(), m)
				if err != nil {
					return nil, err
				}
				out = append(out, &request{bench: bm.Name, g: l.G, weight: l.Weight, m: m, mi: mi, text: text.String(), body: body})
			}
		}
	}
	return out, nil
}

func scheduleBody(loopText string, m *machine.Config) ([]byte, error) {
	return json.Marshal(&server.ScheduleRequest{LoopText: loopText, Machine: m, Scheme: "GP"})
}

// permutation returns the identity for seed 0 and a seeded shuffle
// otherwise; stream separates the independent shuffles of one seed.
func permutation(n int, seed int64, stream int64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	if seed != 0 {
		r := rand.New(rand.NewSource(seed*7919 + stream))
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return p
}

// zipfSequence draws n request positions: Zipf(s=1.1) popularity ranks
// over the population in canonical order, with a fresh-loop slot at every
// freshEvery-th position. The ranking is the same for every seed: the hot
// requests' body sizes set the warm path's cost, so a seeded ranking would
// make the seed, not the program, move the warm metrics. The slots sit at
// fixed positions so every run interleaves cold work the same way.
func zipfSequence(n, population int, zipfSeed int64) []int32 {
	r := rand.New(rand.NewSource(zipfSeed))
	z := rand.NewZipf(r, zipfS, 1, uint64(population-1))
	seq := make([]int32, n)
	for i := range seq {
		if (i+1)%freshEvery == 0 {
			seq[i] = freshSlot
			continue
		}
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// fresh is the k-th never-seen loop of a run: a DSP template renamed so
// its body, and so its cache key, is new to every daemon.
type fresh struct {
	tmpl *request
	name string
	body []byte
}

// freshLoop instantiates fresh loop k. Renaming changes the cache key but
// not the scheduling work, so every fresh loop costs what its template
// costs and matches the template's library schedule.
func (in *inputs) freshLoop(k int) (*fresh, error) {
	tmpl := in.dsp[in.freshOrder[k%len(in.dsp)]]
	name := fmt.Sprintf("%s.s%d.f%d", tmpl.g.Name, in.seed, k)
	header := fmt.Sprintf("loop %s %d\n", tmpl.g.Name, tmpl.g.Niter)
	if !strings.HasPrefix(tmpl.text, header) {
		return nil, fmt.Errorf("fresh loop %d: template %s has an unexpected header", k, tmpl.g.Name)
	}
	text := fmt.Sprintf("loop %s %d\n", name, tmpl.g.Niter) + tmpl.text[len(header):]
	body, err := scheduleBody(text, tmpl.m)
	if err != nil {
		return nil, err
	}
	return &fresh{tmpl: tmpl, name: name, body: body}, nil
}
