package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// Request decoding: POST /summarize and POST /summarize/batch bodies are
// read whole into a pooled buffer and parsed in one pass over the known
// schema — no reflection, no validity pre-scan, no interface dispatch.
// The fast path takes only the canonical shape json.Marshal emits for
// SummarizeRequest and BatchRequest (exact-case keys, each at most once;
// strings without escapes; null only for a trajectory or its samples;
// nothing but whitespace after the object). Anything else declines, and
// the same bytes go to json.Unmarshal on a fresh value, so every body
// yields exactly the value or exactly the error encoding/json would.
// Numbers and times go through the functions encoding/json itself calls
// (strconv.ParseFloat/ParseInt and (*time.Time).UnmarshalJSON), so an
// accepted body decodes bit for bit as the stdlib would decode it.
// docs/PERFORMANCE.md "Request decoding" has the measurements.

// maxPooledBody and maxPooledSamples bound the buffers a bodyBuffer may
// hold when it goes back to bodyPool: a rare multi-megabyte batch, or a
// body of many tiny samples, must not pin its memory for the process
// lifetime.
const (
	maxPooledBody    = 1 << 20
	maxPooledSamples = 1 << 15 // ≈1.3 MB of traj.Sample
)

// bodyBuffer is the pooled per-request decode state: the body bytes and
// the decoder, whose samples scratch the samples arrays are parsed into
// before their exact-size copy.
type bodyBuffer struct {
	buf bytes.Buffer
	dec decoder
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuffer) }}

// decodeBody reads body to its end and decodes it into v: through parse
// ((*decoder).summarizeRequest or (*decoder).batchRequest) when the body
// has the canonical shape, else through json.Unmarshal on a fresh value.
// A read error — *http.MaxBytesError for an oversized body — is returned
// as is. Nothing stored in v aliases the pooled buffer: parse copies
// every string and slice out.
func decodeBody[T any](body io.Reader, v *T, parse func(*decoder, *T) bool) error {
	bb := bodyPool.Get().(*bodyBuffer)
	defer func() {
		if bb.buf.Cap() <= maxPooledBody && cap(bb.dec.samples) <= maxPooledSamples {
			bodyPool.Put(bb)
		}
	}()
	bb.buf.Reset()
	if _, err := bb.buf.ReadFrom(body); err != nil {
		return err
	}
	data := bb.buf.Bytes()
	bb.dec.data, bb.dec.pos = data, 0
	if parse(&bb.dec, v) && bb.dec.end() {
		return nil
	}
	var zero T
	*v = zero
	return json.Unmarshal(data, v)
}

// decoder is the fast path's cursor over one body. Every method returns
// false to decline: the body is not in the canonical shape (it may still
// be valid JSON), and the caller falls back to encoding/json.
type decoder struct {
	data    []byte
	pos     int
	samples []traj.Sample
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether c was
// there.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (d *decoder) null() bool {
	d.ws()
	if bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += len("null")
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}

// object parses one object, handing each member's key to member, which
// must parse the member's value. A repeated key declines, since
// encoding/json would merge the two values; no object of the schema has
// more than three keys.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var keys [3][]byte
	for n := 0; ; n++ {
		key, ok := d.str()
		if !ok || n == len(keys) || !d.consume(':') {
			return false
		}
		for _, k := range keys[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		keys[n] = key
		if !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array parses one array, calling elem once per element, which must
// parse the element.
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

// str scans a string literal and returns its contents, aliasing data.
// It takes only strings whose contents are their own value: no escape,
// no control character, valid UTF-8.
func (d *decoder) str() ([]byte, bool) {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	ascii := true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.pos = i + 1
			return s, true
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number scans a literal of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns it.
func (d *decoder) number() ([]byte, bool) {
	d.ws()
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i)
	default:
		return nil, false
	}
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	d.pos = i
	return data[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// float parses a number into *f exactly as encoding/json does for a
// float64 field; an out-of-range value declines.
func (d *decoder) float(f *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*f = v
	return true
}

// integer parses a plain integer into *n; a fraction, an exponent or an
// overflow declines.
func (d *decoder) integer(n *int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(v)) != v {
		return false
	}
	*n = int(v)
	return true
}

// text parses a string into *s, copying it out of the body.
func (d *decoder) text(s *string) bool {
	b, ok := d.str()
	if ok {
		*s = string(b)
	}
	return ok
}

// summarizeRequest parses a SummarizeRequest object: the whole
// POST /summarize body, or one batch item.
func (d *decoder) summarizeRequest(req *SummarizeRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "trajectory":
			if d.null() {
				return true
			}
			req.Trajectory = new(traj.Raw)
			return d.raw(req.Trajectory)
		case "k":
			return d.integer(&req.K)
		case "region":
			return d.text(&req.Region)
		}
		return false
	})
}

// batchRequest parses a BatchRequest object.
func (d *decoder) batchRequest(req *BatchRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "items":
			req.Items = []SummarizeRequest{}
			return d.array(func() bool {
				req.Items = append(req.Items, SummarizeRequest{})
				return d.summarizeRequest(&req.Items[len(req.Items)-1])
			})
		case "k":
			return d.integer(&req.K)
		case "region":
			return d.text(&req.Region)
		}
		return false
	})
}

// raw parses a traj.Raw object. The samples are parsed into the
// decoder's scratch and copied into an exact-size slice, so a trip costs
// one samples allocation however long it is.
func (d *decoder) raw(r *traj.Raw) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return d.text(&r.ID)
		case "object":
			return d.text(&r.Object)
		case "samples":
			if d.null() {
				return true
			}
			d.samples = d.samples[:0]
			ok := d.array(func() bool {
				d.samples = append(d.samples, traj.Sample{})
				return d.sample(&d.samples[len(d.samples)-1])
			})
			if ok {
				r.Samples = append(make([]traj.Sample, 0, len(d.samples)), d.samples...)
			}
			return ok
		}
		return false
	})
}

// sample parses a traj.Sample object. The timestamp goes through
// (*time.Time).UnmarshalJSON on the quoted literal, the call
// encoding/json makes for a time.Time field.
func (d *decoder) sample(s *traj.Sample) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "pt":
			return d.point(&s.Pt)
		case "t":
			d.ws()
			start := d.pos
			if _, ok := d.str(); !ok {
				return false
			}
			return s.T.UnmarshalJSON(d.data[start:d.pos]) == nil
		}
		return false
	})
}

// point parses a geo.Point object.
func (d *decoder) point(p *geo.Point) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "Lat":
			return d.float(&p.Lat)
		case "Lng":
			return d.float(&p.Lng)
		}
		return false
	})
}
