package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		status  int
		correct bool
		want    outcome
	}{
		{200, true, served},
		{200, false, mismatched},
		{429, true, refused},
		{500, true, failed},
		{400, true, failed},
	} {
		if got := classify(c.status, c.correct); got != c.want {
			t.Errorf("classify(%d, %v) = %v, want %v", c.status, c.correct, got, c.want)
		}
	}
}

func TestErrorShareCountsRefusalsAndMismatches(t *testing.T) {
	var tl tally
	for i := 0; i < 6; i++ {
		tl.count(served)
	}
	tl.count(refused)
	tl.count(mismatched)
	tl.count(failed)
	tl.count(served)
	tl.mismatch() // a served fresh reply a later check rejected
	if tl.attempted != 10 || tl.served != 6 || tl.errors() != 4 {
		t.Fatalf("tally %+v", tl)
	}
	if got := share(float64(tl.errors()), float64(tl.attempted)); got != 0.4 {
		t.Fatalf("error share %v, want 0.4", got)
	}
}

// drive against a daemon that sheds every third request with 429 and
// corrupts every fifth body: every such request counts against
// error_share, and none of them enters the latency samples.
func TestDriveCountsRefusalsAndWrongBodies(t *testing.T) {
	in, err := newInputs(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([][]byte, len(in.spec))
	for i, r := range in.spec {
		refs[i] = append([]byte("ok:"), r.body...)
	}
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch i := n.Add(1); {
		case i%3 == 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case i%5 == 0:
			_, _ = w.Write([]byte("wrong"))
		default:
			_, _ = w.Write(append([]byte("ok:"), body...))
		}
	}))
	defer ts.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	win, err := drive(hc, ts.URL, in, refs, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if win.attempted != len(in.seq) {
		t.Fatalf("attempted %d of %d positions", win.attempted, len(in.seq))
	}
	// Fresh replies are not compared inline: the wrong ones among them
	// are served here and rejected by checkFresh later.
	wantRefused := len(in.seq) / 3
	if win.refused != wantRefused || win.failed != 0 {
		t.Fatalf("refused %d (want %d), failed %d", win.refused, wantRefused, win.failed)
	}
	if win.mismatched == 0 || win.errors() != win.refused+win.mismatched {
		t.Fatalf("mismatched %d, errors %d", win.mismatched, win.errors())
	}
	if len(win.lat) != win.served {
		t.Fatalf("%d latency samples for %d served", len(win.lat), win.served)
	}
	bad, err := checkFresh(win, libraryRefs{})
	if err != nil {
		t.Fatal(err)
	}
	if bad != len(win.fresh) {
		t.Fatalf("checkFresh rejected %d of %d garbage fresh replies", bad, len(win.fresh))
	}
}

// An incorrect output still prints the result line, with correct false,
// and makes the command exit 1; a metric the workload did not measure is
// a benchmark defect and prints no result.
func TestRunExitCodes(t *testing.T) {
	full := func(failed int) *result {
		l := &ledger{}
		for _, n := range append(append([]string{}, endToEnd...), perLayer...) {
			if n != "error_share" {
				l.add(n, 1, "count")
			}
		}
		return &result{attempted: 10, failed: failed, metrics: l}
	}
	for _, c := range []struct {
		name     string
		res      *result
		wantCode int
		wantLine string
	}{
		{"correct", full(0), 0, `{"correct":true,"attempted":10,"failed":0,`},
		{"incorrect", full(2), 1, `{"correct":false,"attempted":10,"failed":2,`},
		{"unmeasured", &result{attempted: 10, metrics: &ledger{}}, 2, ""},
	} {
		workloads["test"] = func(config) (*result, error) { return c.res, nil }
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "test", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut)
		delete(workloads, "test")
		if code != c.wantCode {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, code, c.wantCode, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		last := lines[len(lines)-1]
		if c.wantLine == "" {
			if out.Len() != 0 {
				t.Errorf("%s: printed %q, want nothing", c.name, out.String())
			}
			continue
		}
		if !strings.HasPrefix(last, c.wantLine) {
			t.Errorf("%s: last line %q, want prefix %q", c.name, last, c.wantLine)
		}
	}
}
