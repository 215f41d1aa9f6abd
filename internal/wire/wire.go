// Package wire holds the HTTP bodies that carry core.Config and core.Result
// between clients, the server and cluster peers, and the decoder every one
// of them is read with.
//
// Bodies are written with encoding/json, so they arrive in one canonical
// form: exact-case field names, numbers in strconv's shortest form, and
// strings (cache keys, solver names) that rarely need an escape. Decode
// and Unmarshal read that form in one reflection-free pass
// (strconv.ParseFloat and ParseInt over the bytes) and accept only input
// encoding/json decodes to the same value:
//
//   - exact-case known keys, each at most once, in any order, with any
//     whitespace;
//   - strings without escapes, control bytes or invalid UTF-8;
//   - null only where the Go value is a pointer (Config.Cost, a Result);
//   - numbers in range for the field's type;
//   - nothing but whitespace after the value.
//
// Any other input falls back to encoding/json on the same bytes, so every
// error text and every leniency (case-folded or unknown keys, escapes,
// trailing data after a streamed value) is exactly encoding/json's. The
// fallback is not a second codec: encoding/json stays the decoder of
// record, and the fast path is an exact shortcut through it.
package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
)

// EvalRequest is the POST /v1/eval body, and the POST /v1/peer/solve body
// a routing node sends to the point's owner.
type EvalRequest struct {
	Config core.Config `json:"config"`
}

// EvalResponse is the POST /v1/eval and /v1/peer/solve success body.
type EvalResponse struct {
	Result *core.Result `json:"result"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Configs []core.Config `json:"configs"`
}

// BatchResponse is the POST /v1/batch success body: Results[i] answers
// Configs[i]. When any point failed, Errors is the same length with the
// failing points' messages (empty string = point succeeded, Results[i]
// set); an all-success batch omits Errors entirely.
type BatchResponse struct {
	Results []*core.Result `json:"results"`
	Errors  []string       `json:"errors,omitempty"`
}

// BatchStreamLine is one NDJSON line of a streamed POST /v1/batch response:
// the result (or per-point error) for Configs[Index]. Lines arrive in index
// order, each flushed as soon as its point resolves.
type BatchStreamLine struct {
	Index  int          `json:"index"`
	Result *core.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	// Done marks the terminal line: every point line has been written.
	// The line carries no result; Index is the point count and TraceID
	// the request's trace id.
	Done    bool   `json:"done,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// FillRequest replicates cache entries to a peer (POST /v1/peer/fill).
// From names the sending node (for logs and counters); entries are
// admitted through the engine's validated, skip-existing gate.
type FillRequest struct {
	From    string                 `json:"from"`
	Entries []engine.SnapshotEntry `json:"entries"`
}

// FillResponse reports how many entries the peer admitted (existing keys
// and non-finite entries are skipped).
type FillResponse struct {
	Admitted int `json:"admitted"`
}

// EntriesResponse carries a peer's export of the requester's ring arc
// (GET /v1/peer/entries) — every cached entry whose replica set includes
// the requesting node.
type EntriesResponse struct {
	Entries []engine.SnapshotEntry `json:"entries"`
}

// Unmarshal decodes data into v with json.Unmarshal's result and errors.
// v must point to a zero value.
func Unmarshal(data []byte, v any) error {
	if decodeFast(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// Decode decodes the first JSON value of r into v with the result and
// errors of json.NewDecoder(r).Decode(v), including a read error (an
// *http.MaxBytesError, say) that arrives before the value is complete.
// Unlike the json.Decoder it reads r to its end. v must point to a zero
// value.
func Decode(r io.Reader, v any) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	data := buf.Bytes()
	if err == nil && decodeFast(data, v) {
		return nil
	}
	return json.NewDecoder(io.MultiReader(bytes.NewReader(data), errReader{err})).Decode(v)
}

// errReader replays a read error after the bytes read before it, or EOF.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) {
	if e.err == nil {
		return 0, io.EOF
	}
	return 0, e.err
}

// bufPool recycles Decode's body buffers; maxPooledBuf keeps one huge
// batch body from staying resident.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}
