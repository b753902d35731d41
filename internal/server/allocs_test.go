package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gpm"
	"gpm/client"
	"gpm/internal/server"
)

// discardWriter is a reusable http.ResponseWriter that keeps the status
// and counts the body, so an allocation count covers the server alone.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// rewindBody is a request body that one Reset rewinds, so a request can
// be served again without allocating a new one.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestMatchAllocs pins the allocations of one /match through
// Server.ServeHTTP on the suite's fixed graph: a cold query with the
// cache off — decode, parse, the fixpoint and the encode, its relation
// rows allocated once each at their exact size and handed from the
// fixpoint to the encoder uncopied — and a memoised cache hit, which
// replays the stored response bytes.
func TestMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	g := testGraph()
	var text strings.Builder
	if err := gpm.WritePattern(&text, testPattern(g, 1)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(client.QueryRequest{Graph: "g", Pattern: text.String()})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(cfg server.Config) float64 {
		srv := server.New(cfg)
		defer srv.Close()
		if err := srv.Bind("g", g.Clone()); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, "/match", nil)
		if err != nil {
			t.Fatal(err)
		}
		rb := rewindBody{bytes.NewReader(body)}
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			rb.Reset(body)
			req.Body = rb
			w.code, w.n = 0, 0
			srv.ServeHTTP(w, req)
		}
		serve() // freeze the snapshot; with the cache on, memoise the bytes
		serve()
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("/match served %d with %d bytes", w.code, w.n)
		}
		return testing.AllocsPerRun(50, serve)
	}
	cold := measure(server.Config{})
	hit := measure(server.Config{CacheBytes: 1 << 20})
	t.Logf("allocations per /match: cold %.0f, memoised hit %.0f", cold, hit)
	const maxCold, maxHit = 147, 11
	if cold > maxCold {
		t.Errorf("a cold /match allocates %.0f objects, want at most %d", cold, maxCold)
	}
	if hit > maxHit {
		t.Errorf("a memoised /match hit allocates %.0f objects, want at most %d", hit, maxHit)
	}
}
