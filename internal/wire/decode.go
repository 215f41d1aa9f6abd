package wire

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
)

// decodeFast decodes data into v when data is in the canonical form (see
// the package comment) and v is one of the bodies it knows, reporting
// whether it did. It writes v only on success.
func decodeFast(data []byte, v any) bool {
	switch v := v.(type) {
	case *EvalRequest:
		return decodeInto(data, v, (*decoder).evalRequest)
	case *EvalResponse:
		return decodeInto(data, v, (*decoder).evalResponse)
	case *BatchRequest:
		return decodeInto(data, v, (*decoder).batchRequest)
	case *BatchResponse:
		return decodeInto(data, v, (*decoder).batchResponse)
	case *BatchStreamLine:
		return decodeInto(data, v, (*decoder).streamLine)
	case *FillRequest:
		return decodeInto(data, v, (*decoder).fillRequest)
	case *FillResponse:
		return decodeInto(data, v, (*decoder).fillResponse)
	case *EntriesResponse:
		return decodeInto(data, v, (*decoder).entriesResponse)
	case *core.Config:
		return decodeInto(data, v, (*decoder).config)
	case *core.Result:
		return decodeInto(data, v, (*decoder).result)
	}
	return false
}

// decodeInto decodes one whole value of data into a fresh T and stores it
// in *v when nothing but whitespace follows it.
func decodeInto[T any](data []byte, v *T, decode func(*decoder, *T) bool) bool {
	d := decoder{data: data}
	var x T
	if !decode(&d, &x) {
		return false
	}
	d.skipSpace()
	if d.pos != len(d.data) {
		return false
	}
	*v = x
	return true
}

// decoder is a cursor over canonical JSON. Every method reports whether
// the input at the cursor was in the canonical form; false abandons the
// fast path, so none of them needs to say why.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume consumes c if it is the next byte after whitespace.
func (d *decoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal consumes the keyword lit (null, true or false) if it is next.
func (d *decoder) literal(lit string) bool {
	d.skipSpace()
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// object decodes an object, calling member with each key and the cursor
// on that key's value; member decodes the value.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.rawString()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array decodes an array, calling elem with the cursor on each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// rawString returns the bytes of a string without escapes or control
// characters. Non-ASCII bytes must be valid UTF-8: encoding/json would
// replace invalid ones.
func (d *decoder) rawString() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start, ascii := d.pos, true
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			s := d.data[start:d.pos]
			d.pos++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *decoder) str(p *string) bool {
	s, ok := d.rawString()
	if ok {
		*p = string(s)
	}
	return ok
}

func (d *decoder) boolean(p *bool) bool {
	switch {
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return false
	}
	return true
}

// number returns the literal of a number in JSON's grammar, which is
// stricter than strconv's (no leading '+', zeros, '.', hex or '_').
func (d *decoder) number() ([]byte, bool) {
	d.skipSpace()
	b, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[d.pos:i]
	d.pos = i
	return lit, true
}

// float parses a number as encoding/json does for a float64: out of range
// is an error there, so it is a fallback here.
func (d *decoder) float(p *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*p = f
	return true
}

// integer parses a number as encoding/json does for an int kind: a
// fraction, an exponent or an overflow is an error there.
func integer[T ~int](d *decoder, p *T) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*p = T(n)
	return true
}

// fields records the members of one object already decoded. encoding/json
// decodes a repeated key into the earlier value, merging structs and
// slices, so a repeat falls back rather than being emulated.
type fields uint32

func (s *fields) first(i uint) bool {
	bit := fields(1) << i
	if *s&bit != 0 {
		return false
	}
	*s |= bit
	return true
}

func (d *decoder) config(c *core.Config) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "Protocol":
			return seen.first(0) && integer(d, &c.Protocol)
		case "N":
			return seen.first(1) && integer(d, &c.N)
		case "Attacker":
			return seen.first(2) && integer(d, &c.Attacker)
		case "Detection":
			return seen.first(3) && integer(d, &c.Detection)
		case "LambdaC":
			return seen.first(4) && d.float(&c.LambdaC)
		case "TIDS":
			return seen.first(5) && d.float(&c.TIDS)
		case "ShapeP":
			return seen.first(6) && d.float(&c.ShapeP)
		case "M":
			return seen.first(7) && integer(d, &c.M)
		case "P1":
			return seen.first(8) && d.float(&c.P1)
		case "P2":
			return seen.first(9) && d.float(&c.P2)
		case "LambdaQ":
			return seen.first(10) && d.float(&c.LambdaQ)
		case "JoinRate":
			return seen.first(11) && d.float(&c.JoinRate)
		case "LeaveRate":
			return seen.first(12) && d.float(&c.LeaveRate)
		case "BandwidthBps":
			return seen.first(13) && d.float(&c.BandwidthBps)
		case "GDHElementBits":
			return seen.first(14) && integer(d, &c.GDHElementBits)
		case "PartitionRate":
			return seen.first(15) && d.float(&c.PartitionRate)
		case "MergeRate":
			return seen.first(16) && d.float(&c.MergeRate)
		case "MaxGroups":
			return seen.first(17) && integer(d, &c.MaxGroups)
		case "MeanHops":
			return seen.first(18) && d.float(&c.MeanHops)
		case "MeanDegree":
			return seen.first(19) && d.float(&c.MeanDegree)
		case "Cost":
			return seen.first(20) && d.costPtr(&c.Cost)
		case "ExplicitEviction":
			return seen.first(21) && d.boolean(&c.ExplicitEviction)
		case "MaxStates":
			return seen.first(22) && integer(d, &c.MaxStates)
		case "Parallelism":
			return seen.first(23) && integer(d, &c.Parallelism)
		case "Solver":
			return seen.first(24) && d.str(&c.Solver)
		}
		return false
	})
}

func (d *decoder) costPtr(pp **cost.Params) bool {
	if d.literal("null") {
		*pp = nil
		return true
	}
	p := new(cost.Params)
	if !d.costParams(p) {
		return false
	}
	*pp = p
	return true
}

func (d *decoder) costParams(p *cost.Params) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "PacketBits":
			return seen.first(0) && d.float(&p.PacketBits)
		case "StatusBits":
			return seen.first(1) && d.float(&p.StatusBits)
		case "StatusRate":
			return seen.first(2) && d.float(&p.StatusRate)
		case "VoteBits":
			return seen.first(3) && d.float(&p.VoteBits)
		case "BeaconBits":
			return seen.first(4) && d.float(&p.BeaconBits)
		case "BeaconRate":
			return seen.first(5) && d.float(&p.BeaconRate)
		case "GDHElementBits":
			return seen.first(6) && integer(d, &p.GDHElementBits)
		case "MeanHops":
			return seen.first(7) && d.float(&p.MeanHops)
		case "MeanDegree":
			return seen.first(8) && d.float(&p.MeanDegree)
		case "LambdaQ":
			return seen.first(9) && d.float(&p.LambdaQ)
		case "JoinRate":
			return seen.first(10) && d.float(&p.JoinRate)
		case "LeaveRate":
			return seen.first(11) && d.float(&p.LeaveRate)
		case "M":
			return seen.first(12) && integer(d, &p.M)
		}
		return false
	})
}

func (d *decoder) result(r *core.Result) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "Config":
			return seen.first(0) && d.config(&r.Config)
		case "MTTSF":
			return seen.first(1) && d.float(&r.MTTSF)
		case "Ctotal":
			return seen.first(2) && d.float(&r.Ctotal)
		case "CostBreakdown":
			return seen.first(3) && d.breakdown(&r.CostBreakdown)
		case "ProbC1":
			return seen.first(4) && d.float(&r.ProbC1)
		case "ProbC2":
			return seen.first(5) && d.float(&r.ProbC2)
		case "ProbDepleted":
			return seen.first(6) && d.float(&r.ProbDepleted)
		case "States":
			return seen.first(7) && integer(d, &r.States)
		case "Transient":
			return seen.first(8) && integer(d, &r.Transient)
		case "Utilization":
			return seen.first(9) && d.float(&r.Utilization)
		case "Power":
			return seen.first(10) && d.energy(&r.Power)
		case "MissionEnergyJ":
			return seen.first(11) && d.float(&r.MissionEnergyJ)
		case "Sensitivities":
			return seen.first(12) && list(d, &r.Sensitivities, d.sensitivity)
		}
		return false
	})
}

// resultPtr decodes a Result into a new allocation, or null into nil.
func (d *decoder) resultPtr(pp **core.Result) bool {
	if d.literal("null") {
		*pp = nil
		return true
	}
	r := new(core.Result)
	if !d.result(r) {
		return false
	}
	*pp = r
	return true
}

func (d *decoder) breakdown(b *cost.Breakdown) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "GC":
			return seen.first(0) && d.float(&b.GC)
		case "Status":
			return seen.first(1) && d.float(&b.Status)
		case "Rekey":
			return seen.first(2) && d.float(&b.Rekey)
		case "IDS":
			return seen.first(3) && d.float(&b.IDS)
		case "Beacon":
			return seen.first(4) && d.float(&b.Beacon)
		case "MP":
			return seen.first(5) && d.float(&b.MP)
		}
		return false
	})
}

func (d *decoder) energy(e *cost.EnergyReport) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "RadioW":
			return seen.first(0) && d.float(&e.RadioW)
		case "IdleW":
			return seen.first(1) && d.float(&e.IdleW)
		case "TotalW":
			return seen.first(2) && d.float(&e.TotalW)
		case "PerNodeW":
			return seen.first(3) && d.float(&e.PerNodeW)
		}
		return false
	})
}

// list decodes an array into a fresh slice, elem decoding each element in
// place; [] is an empty, non-nil slice, as encoding/json makes it.
func list[T any](d *decoder, p *[]T, elem func(*T) bool) bool {
	s := []T{}
	ok := d.array(func() bool {
		var zero T
		s = append(s, zero)
		return elem(&s[len(s)-1])
	})
	*p = s
	return ok
}

func (d *decoder) sensitivity(ps *core.ParamSensitivity) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "Param":
			return seen.first(0) && d.str(&ps.Param)
		case "Base":
			return seen.first(1) && d.float(&ps.Base)
		case "DMTTSF":
			return seen.first(2) && d.float(&ps.DMTTSF)
		case "Elasticity":
			return seen.first(3) && d.float(&ps.Elasticity)
		}
		return false
	})
}

func (d *decoder) entry(e *engine.SnapshotEntry) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "Key":
			return seen.first(0) && d.str(&e.Key)
		case "Result":
			return seen.first(1) && d.result(&e.Result)
		}
		return false
	})
}

func (d *decoder) evalRequest(r *EvalRequest) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		return string(key) == "config" && seen.first(0) && d.config(&r.Config)
	})
}

func (d *decoder) evalResponse(r *EvalResponse) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		return string(key) == "result" && seen.first(0) && d.resultPtr(&r.Result)
	})
}

func (d *decoder) batchRequest(r *BatchRequest) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		return string(key) == "configs" && seen.first(0) && list(d, &r.Configs, d.config)
	})
}

func (d *decoder) batchResponse(r *BatchResponse) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "results":
			return seen.first(0) && list(d, &r.Results, d.resultPtr)
		case "errors":
			return seen.first(1) && list(d, &r.Errors, d.str)
		}
		return false
	})
}

func (d *decoder) streamLine(l *BatchStreamLine) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "index":
			return seen.first(0) && integer(d, &l.Index)
		case "result":
			return seen.first(1) && d.resultPtr(&l.Result)
		case "error":
			return seen.first(2) && d.str(&l.Error)
		case "done":
			return seen.first(3) && d.boolean(&l.Done)
		case "trace_id":
			return seen.first(4) && d.str(&l.TraceID)
		}
		return false
	})
}

func (d *decoder) fillRequest(r *FillRequest) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "from":
			return seen.first(0) && d.str(&r.From)
		case "entries":
			return seen.first(1) && list(d, &r.Entries, d.entry)
		}
		return false
	})
}

func (d *decoder) fillResponse(r *FillResponse) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		return string(key) == "admitted" && seen.first(0) && integer(d, &r.Admitted)
	})
}

func (d *decoder) entriesResponse(r *EntriesResponse) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		return string(key) == "entries" && seen.first(0) && list(d, &r.Entries, d.entry)
	})
}
