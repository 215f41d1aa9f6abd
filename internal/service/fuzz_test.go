package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// modelBackend builds and explores each configuration's model, at an N of
// at most 20 so that a hostile N costs little, and answers with an empty
// Result. M, P1, P2 and MaxStates stay as sent, so they key the
// process-wide voting-table store and size the model's table, and the
// exploration runs the rate function over that table.
type modelBackend struct {
	invalid atomic.Int64 // configurations that reached the backend unvalidated
}

func (b *modelBackend) EvalContext(_ context.Context, cfg core.Config) (*core.Result, error) {
	if cfg.Validate() != nil {
		b.invalid.Add(1)
	}
	cfg.N = 2 + cfg.N%19
	m, err := core.BuildModel(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Explore(); err != nil {
		return nil, err
	}
	return &core.Result{Config: cfg}, nil
}

func (b *modelBackend) Cached(core.Config) (*core.Result, bool) { return nil, false }
func (b *modelBackend) JoinInflight(context.Context, core.Config) (*core.Result, bool, error) {
	return nil, false, nil
}
func (b *modelBackend) Stats() engine.Stats { return engine.Stats{} }
func (b *modelBackend) WorkerBound() int    { return 2 }

// FuzzRequestBody posts arbitrary bodies to /v1/eval and /v1/batch. Body
// decoding, the batch limits and core.Config.Validate must answer every
// malformed or out-of-range body with a 4xx, never panic and never pass an
// invalid configuration on. Valid configurations build and explore their
// models, so hostile M, P1, P2 and MaxStates (M = 1<<62, subnormal or
// boundary probabilities, MaxStates = 1) reach the voting-table store and
// the rate function, which must not panic, and the store must stay within
// its byte bound. The seed
// corpus (testdata/fuzz/FuzzRequestBody) holds valid, hostile and
// malformed bodies of both routes.
//
//	go test -run XXX -fuzz FuzzRequestBody -fuzztime 15s ./internal/service/
func FuzzRequestBody(f *testing.F) {
	backend := &modelBackend{}
	srv := New(Options{Backend: backend, MaxBatchPoints: 8})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []string{"/v1/eval", "/v1/batch"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("%s answered %d: %s", route, rec.Code, rec.Body)
			}
		}
		if n := backend.invalid.Load(); n > 0 {
			t.Fatalf("%d invalid configurations reached the backend", n)
		}
		if _, bytes := core.VoteTableStats(); bytes > core.MaxVoteTableBytes {
			t.Fatalf("voting-table store holds %d bytes, bound %d", bytes, core.MaxVoteTableBytes)
		}
	})
}
