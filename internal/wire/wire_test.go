package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/shapes"
)

// targets returns a fresh zero value of every type the fast path decodes.
func targets() []any {
	return []any{
		new(EvalRequest), new(EvalResponse), new(BatchRequest), new(BatchResponse),
		new(BatchStreamLine), new(FillRequest), new(FillResponse), new(EntriesResponse),
		new(core.Config), new(core.Result),
	}
}

// sameValue reports whether two decoded values are equal, bit for bit:
// reflect.DeepEqual compares floats with ==, which equates -0 and 0, so
// the re-encoded bytes are compared too.
func sameValue(t *testing.T, a, b any) bool {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		return false
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// checkAgainstJSON asserts that whatever the fast path accepts,
// json.Unmarshal accepts too, with the same value.
func checkAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	for _, v := range targets() {
		if !decodeFast(data, v) {
			continue
		}
		ref := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := json.Unmarshal(data, ref); err != nil {
			t.Fatalf("%T: fast path accepted %q, encoding/json: %v", v, data, err)
		}
		if !sameValue(t, v, ref) {
			t.Fatalf("%T from %q:\nfast %+v\njson %+v", v, data, v, ref)
		}
	}
}

// FuzzDecode is the fast path's differential target: on any input it
// accepts, encoding/json must accept and decode the same value, for every
// body type. The seeds are FuzzRequestBody's corpus plus inputs just
// outside the canonical form.
//
//	go test -run XXX -fuzz FuzzDecode -fuzztime 15s ./internal/wire/
func FuzzDecode(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "service", "testdata", "fuzz", "FuzzRequestBody", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		q := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		body, err := strconv.Unquote(q)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(body))
	}
	res := sampleResult(rand.New(rand.NewSource(1)))
	for _, v := range []any{EvalRequest{Config: res.Config}, EvalResponse{Result: res},
		BatchResponse{Results: []*core.Result{res, nil}, Errors: []string{"", "boom"}},
		BatchStreamLine{Index: 3, Result: res}, FillRequest{From: "n1", Entries: []engine.SnapshotEntry{{Key: "k", Result: *res}}}} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"CONFIG":{"n":12}}`, `{"config":{"N":12,"n":13}}`,
		`{"config":{"Solver":"a\u0075to"}}`, `{"config":{"Solver":"\u00e9"}}`, "{\"config\":{\"Solver\":\"\xff\"}}",
		`{"config":null}`, `{"config":{"N":null}}`, `{"config":{"Cost":null}}`, `{"results":[null]}`, `{"configs":null}`,
		`{"config":{"P1":1e400}}`, `{"config":{"P1":-1e400}}`, `{"config":{"P1":1e-400}}`,
		`{"config":{"N":1.0}}`, `{"config":{"N":1e2}}`, `{"config":{"N":9223372036854775808}}`, `{"config":{"N":-0}}`,
		`{"config":{"N":12}} trailing`, `{"config":{"N":12}}{}`, ` {"config" : { "N" : 12 } } `,
		`{"config":{"N":012}}`, `{"config":{"P1":.5}}`, `{"config":{"P1":+1}}`, `{"config":{"P1":1.}}`,
		`{"config":{"ExplicitEviction":1}}`, `{"config":{"N":12,}}`, `{"config":{"Cost":{"M":1},"Cost":{"M":2}}}`,
		`{"index":1,"done":true,"trace_id":"t"}`, `{"admitted":3}`, `{"entries":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstJSON(t, data) })
}

// edgeFloats are the values whose shortest form stresses the parse:
// signed zero, the smallest subnormal, exponent notation at both of
// encoding/json's switch points, and the largest finite float64.
var edgeFloats = []float64{math.Copysign(0, -1), 0, 5e-324, 1e-7, 1e-6, 1e21, 1e20, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3}

func sampleFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(40)-20))
}

func sampleInt(rng *rand.Rand) int {
	return []int{0, -1, 1, math.MaxInt, math.MinInt, rng.Intn(1 << 20)}[rng.Intn(6)]
}

func sampleConfig(rng *rand.Rand) core.Config {
	fl := func() float64 { return sampleFloat(rng) }
	in := func() int { return sampleInt(rng) }
	c := core.Config{
		Protocol: core.Protocol(in()), N: in(), Attacker: shapes.Kind(in()), Detection: shapes.Kind(in()),
		LambdaC: fl(), TIDS: fl(), ShapeP: fl(), M: in(), P1: fl(), P2: fl(), LambdaQ: fl(),
		JoinRate: fl(), LeaveRate: fl(), BandwidthBps: fl(), GDHElementBits: in(),
		PartitionRate: fl(), MergeRate: fl(), MaxGroups: in(), MeanHops: fl(), MeanDegree: fl(),
		ExplicitEviction: rng.Intn(2) == 0, MaxStates: in(), Parallelism: in(),
		Solver: []string{"", "auto", "ilu-bicgstab", "<a&b>"}[rng.Intn(4)],
	}
	if rng.Intn(2) == 0 {
		c.Cost = &cost.Params{
			PacketBits: fl(), StatusBits: fl(), StatusRate: fl(), VoteBits: fl(),
			BeaconBits: fl(), BeaconRate: fl(), GDHElementBits: in(), MeanHops: fl(),
			MeanDegree: fl(), LambdaQ: fl(), JoinRate: fl(), LeaveRate: fl(), M: in(),
		}
	}
	return c
}

func sampleResult(rng *rand.Rand) *core.Result {
	fl := func() float64 { return sampleFloat(rng) }
	r := &core.Result{
		Config: sampleConfig(rng), MTTSF: fl(), Ctotal: fl(),
		CostBreakdown: cost.Breakdown{GC: fl(), Status: fl(), Rekey: fl(), IDS: fl(), Beacon: fl(), MP: fl()},
		ProbC1:        fl(), ProbC2: fl(), ProbDepleted: fl(), States: sampleInt(rng), Transient: sampleInt(rng),
		Utilization: fl(), Power: cost.EnergyReport{RadioW: fl(), IdleW: fl(), TotalW: fl(), PerNodeW: fl()},
		MissionEnergyJ: fl(),
	}
	if rng.Intn(2) == 0 {
		for _, p := range core.SensitivityParams()[:1+rng.Intn(3)] {
			r.Sensitivities = append(r.Sensitivities, core.ParamSensitivity{Param: p, Base: fl(), DMTTSF: fl(), Elasticity: fl()})
		}
	}
	return r
}

// TestCanonicalRoundTrip pins that json.Marshal's output of random Results
// and Configs, special floats included, takes the fast path and decodes
// bitwise-equal; only a Solver string that encoding/json escapes (<, >,
// &) leaves the canonical form, and it decodes equal through the fallback.
func TestCanonicalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		res := sampleResult(rng)
		escaped := strings.ContainsAny(res.Config.Solver, "<>&")
		for _, v := range []any{res, &res.Config, &EvalResponse{Result: res}, &BatchStreamLine{Index: i, Result: res},
			&BatchResponse{Results: []*core.Result{res}}, &FillRequest{From: "a", Entries: []engine.SnapshotEntry{{Key: "k", Result: *res}}}} {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if fast := decodeFast(data, got); fast == escaped {
				t.Fatalf("%T: fast path took=%v for Solver %q:\n%s", v, fast, res.Config.Solver, data)
			}
			got = reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := Unmarshal(data, got); err != nil {
				t.Fatal(err)
			}
			if !sameValue(t, got, v) {
				t.Fatalf("%T round trip:\n got %+v\nwant %+v", v, got, v)
			}
		}
	}
}

// fillNonZero sets every field reachable from v to a non-zero value.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.Int:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestDecoderCoversStructs is the decoder's field guard: a body with every
// field of every reachable struct set — core.Config, core.Result, the cost
// structs, the sensitivities and the envelopes — must take the fast path
// and decode equal, so a field added to any of them without a decoder
// case fails here. Each member of each object must also be decodable
// alone, and a repeated member must leave the fast path (encoding/json
// merges repeats into the earlier value).
func TestDecoderCoversStructs(t *testing.T) {
	for _, v := range targets() {
		fillNonZero(reflect.ValueOf(v).Elem())
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if !decodeFast(data, got) || !sameValue(t, got, v) {
			t.Errorf("%T: the fast path does not decode every field of\n%s", v, data)
			continue
		}
		var members map[string]json.RawMessage
		if err := json.Unmarshal(data, &members); err != nil {
			t.Fatal(err)
		}
		for key, raw := range members {
			one := []byte(`{"` + key + `":` + string(raw) + `}`)
			if !decodeFast(one, reflect.New(reflect.TypeOf(v).Elem()).Interface()) {
				t.Errorf("%T: member %s alone leaves the fast path", v, key)
			}
			twice := []byte(`{"` + key + `":` + string(raw) + `,"` + key + `":` + string(raw) + `}`)
			if decodeFast(twice, reflect.New(reflect.TypeOf(v).Elem()).Interface()) {
				t.Errorf("%T: repeated member %s took the fast path", v, key)
			}
		}
	}
}

// TestDecodeMatchesDecoder pins Decode to json.Decoder's results and
// errors over a reader: trailing data after the value is ignored, a
// truncated body reports encoding/json's error, and a read error before
// the value completes (the request-size cap) is returned as is, while a
// value that completes before the cap still decodes.
func TestDecodeMatchesDecoder(t *testing.T) {
	valid := `{"config":{"N":12,"P1":0.01}}`
	for _, body := range []string{valid, valid + " trailing", valid + "\n", `{"config":{"N":12`, ``, `{"config":{"n":12}}`, `{"config":{"P1":1e400}}`} {
		var got, want EvalRequest
		gotErr := Decode(strings.NewReader(body), &got)
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%q: Decode error %v, json.Decoder %v", body, gotErr, wantErr)
		}
		if !sameValue(t, &got, &want) {
			t.Errorf("%q: Decode %+v, json.Decoder %+v", body, got, want)
		}
	}
	capped := func(body string) io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), int64(len(valid)+4))
	}
	var req EvalRequest
	if err := Decode(capped(valid+strings.Repeat(" ", 64)), &req); err != nil || req.Config.N != 12 {
		t.Errorf("a value inside the cap followed by padding past it: %v, N %d", err, req.Config.N)
	}
	var tooBig *http.MaxBytesError
	if err := Decode(capped(`{"config":{"N":12,"P1":0.01,"P2":0.01}}`), new(EvalRequest)); !errors.As(err, &tooBig) {
		t.Errorf("a value cut by the cap: %v, want *http.MaxBytesError", err)
	}
}

func BenchmarkDecodeBatchResponse(b *testing.B) {
	var resp BatchResponse
	for _, tids := range []float64{30, 60, 120, 240} {
		cfg := core.DefaultConfig()
		cfg.N, cfg.TIDS = 20, tids
		r, err := core.Analyze(cfg)
		if err != nil {
			b.Fatal(err)
		}
		resp.Results = append(resp.Results, r)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		b.Fatal(err)
	}
	for _, path := range []string{"wire", "json"} {
		b.Run(path, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out BatchResponse
				var err error
				if path == "wire" {
					err = Unmarshal(data, &out)
				} else {
					err = json.Unmarshal(data, &out)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
