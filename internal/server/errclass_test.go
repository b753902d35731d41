package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"gpm/client"
)

// TestEngineErrorClassification is the regression test for the
// watch/update error-mapping bug: these handlers used to wrap every
// engine error in badRequest("%v", ...), flattening the chain so
// writeError could never see context errors (504) — an expired deadline
// on the write path reported as the caller's fault. engineError must
// pass them through unwrapped and keep everything else a 400.
func TestEngineErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"deadline exceeded", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"wrapped cancellation", fmt.Errorf("fixpoint: %w", context.Canceled), http.StatusGatewayTimeout},
		{"validation error", errors.New("pattern bound 3 needs a distance oracle"), http.StatusBadRequest},
	}
	s := New(Config{})
	defer s.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			s.writeError(rr, engineError(tc.err))
			if rr.Code != tc.want {
				t.Errorf("engineError(%v) served %d, want %d", tc.err, rr.Code, tc.want)
			}
			var er client.ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("body is not a JSON error: %s", rr.Body.Bytes())
			}
		})
	}
}

// TestRequestCtxRejectsNegativeTimeout pins the satellite bugfix at the
// unit level: a negative timeout_ms used to silently mean "use the
// default"; it must now be a 400 with an actionable message.
func TestRequestCtxRejectsNegativeTimeout(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	r := httptest.NewRequest(http.MethodPost, "/match", nil)

	ctx, stop, err := s.requestCtx(r, -1)
	if err == nil {
		stop()
		t.Fatal("timeout_ms = -1 accepted")
	}
	if ctx != nil || stop != nil {
		t.Error("rejected request still produced a context")
	}
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusBadRequest {
		t.Fatalf("negative timeout error = %v, want a 400 httpError", err)
	}

	for _, ok := range []int64{0, 1, 30000} {
		ctx, stop, err := s.requestCtx(r, ok)
		if err != nil || ctx == nil {
			t.Fatalf("timeout_ms = %d rejected: %v", ok, err)
		}
		stop()
	}
}
