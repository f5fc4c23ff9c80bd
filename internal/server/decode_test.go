package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// fastDecode runs only the one-pass path over data, reporting whether it
// accepted the body.
func fastDecode[T any](data []byte, parse func(*decoder, *T) bool) (T, bool) {
	var v T
	d := decoder{data: data}
	ok := parse(&d, &v) && d.end()
	return v, ok
}

func fastSummarize(data []byte) bool {
	_, ok := fastDecode(data, (*decoder).summarizeRequest)
	return ok
}

func fastBatch(data []byte) bool {
	_, ok := fastDecode(data, (*decoder).batchRequest)
	return ok
}

// checkDecode is the equivalence contract for one request type: when
// the fast path accepts, encoding/json accepts with a DeepEqual value;
// and the full decode (fast path or fallback) yields exactly the value
// and the error json.Unmarshal yields.
func checkDecode[T any](t *testing.T, data []byte, parse func(*decoder, *T) bool) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	if fast, ok := fastDecode(data, parse); ok {
		if wantErr != nil {
			t.Fatalf("fast path accepted a body encoding/json rejects (%v): %q", wantErr, data)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast path value differs from encoding/json for %q\nfast:   %#v\nstdlib: %#v", data, fast, want)
		}
	}
	var got T
	err := decodeBody(bytes.NewReader(data), &got, parse)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("decode error %v, encoding/json %v, for %q", err, wantErr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode value differs from encoding/json for %q\ngot:    %#v\nstdlib: %#v", data, got, want)
	}
}

// smallTrip is a three-sample trajectory for small fuzz seeds.
func smallTrip() *traj.Raw {
	t0 := time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
	return &traj.Raw{ID: "trip-1", Object: "taxi-1", Samples: []traj.Sample{
		{Pt: geo.Point{Lat: 39.9, Lng: 116.4}, T: t0},
		{Pt: geo.Point{Lat: 39.90012, Lng: 116.40034}, T: t0.Add(5 * time.Second)},
		{Pt: geo.Point{Lat: 39.9003, Lng: 116.4007}, T: t0.Add(10*time.Second + 250*time.Millisecond)},
	}}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeRequest holds the one-pass decoder to encoding/json on both
// request types. Seeds stay under 1 KB: the fuzzer minimises slowly on
// multi-kilobyte inputs.
func FuzzDecodeRequest(f *testing.F) {
	trip := smallTrip()
	single := mustMarshal(f, SummarizeRequest{Trajectory: trip, K: 2, Region: "beijing"})
	batch := mustMarshal(f, BatchRequest{Items: []SummarizeRequest{{Trajectory: trip}, {K: 1}}, K: 3})
	offset := *trip
	offset.Samples = append([]traj.Sample(nil), trip.Samples...)
	for i := range offset.Samples {
		offset.Samples[i].T = offset.Samples[i].T.In(time.FixedZone("", 5*3600+1800))
	}
	for _, seed := range [][]byte{
		single,
		batch,
		mustMarshal(f, SummarizeRequest{Trajectory: &offset}),
		append(append([]byte(nil), single...), " \n"...),
		append(append([]byte(nil), single...), "garbage"...),
		bytes.Replace(single, []byte(`"trip-1"`), []byte(`"trép"`), 1),
		bytes.Replace(single, []byte(`"Lat"`), []byte(`"lat"`), 1),
		[]byte(`{"trajectory":null,"k":-0}`),
		[]byte(`{"trajectory":{"id":"x","samples":[]},"k":1e2}`),
		[]byte(`{"trajectory":{"samples":[{"pt":{"Lat":-0,"Lng":1E+2},"t":null}]}}`),
		[]byte(`{"items":[null,{"k":1.5}],"region":"r"}`),
		[]byte(`{"items":[],"k":1,"k":2}`),
		[]byte(`null`),
		[]byte(``),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, (*decoder).summarizeRequest)
		checkDecode(t, data, (*decoder).batchRequest)
	})
}

// oracleSummarize is handleSummarize with encoding/json as its decoder:
// the reference the server's response must equal byte for byte.
func oracleSummarize(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var req SummarizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		srv.writeError(rec, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return rec
	}
	resp, code := srv.summarizeOne(context.Background(), &req, "")
	if code != http.StatusOK {
		srv.writeError(rec, code, resp.Error)
		return rec
	}
	srv.writeJSON(rec, resp)
	return rec
}

// oracleBatch is handleBatch with encoding/json as its decoder.
func oracleBatch(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		srv.writeError(rec, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return rec
	}
	if len(req.Items) == 0 {
		srv.writeError(rec, http.StatusBadRequest, "empty batch: items is required")
		return rec
	}
	srv.runBatch(context.Background(), rec, &req)
	return rec
}

// spread puts JSON whitespace around every structural character outside
// strings. It assumes the input has no string escapes.
func spread(data []byte) []byte {
	var out []byte
	inString := false
	for _, c := range data {
		switch {
		case c == '"':
			inString = !inString
			out = append(out, c)
		case !inString && strings.IndexByte("{}[]:,", c) >= 0:
			out = append(out, " \t"...)
			out = append(out, c)
			out = append(out, "\r\n "...)
		default:
			out = append(out, c)
		}
	}
	return out
}

// inZone returns a copy of trip with every timestamp moved to loc.
func inZone(trip *traj.Raw, loc *time.Location) *traj.Raw {
	out := *trip
	out.Samples = append([]traj.Sample(nil), trip.Samples...)
	for i := range out.Samples {
		out.Samples[i].T = out.Samples[i].T.In(loc)
	}
	return &out
}

// TestDecodeMatchesEncodingJSON drives canonical and non-canonical
// bodies through both endpoints and compares status and response bytes
// with the encoding/json oracle, pinning which bodies take the fast
// path.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	srv, trip := testServer(t)
	canon := mustMarshal(t, SummarizeRequest{Trajectory: trip})
	rest := canon[1:] // the canonical body without its opening brace
	replace := func(old, new string) []byte {
		if !bytes.Contains(canon, []byte(old)) {
			t.Fatalf("canonical body has no %q", old)
		}
		return bytes.Replace(canon, []byte(old), []byte(new), 1)
	}
	prefix := func(members string) []byte { return append([]byte("{"+members+","), rest...) }
	coords := regexp.MustCompile(`"(Lat|Lng)":([-0-9.eE+]+)`)
	exponents := coords.ReplaceAllFunc(canon, func(m []byte) []byte {
		sub := coords.FindSubmatch(m)
		v, err := strconv.ParseFloat(string(sub[2]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf(`"%s":%s`, sub[1], strconv.FormatFloat(v, 'E', -1, 64)))
	})
	firstTime := regexp.MustCompile(`"t":"[^"]*"`).Find(canon)

	batch := mustMarshal(t, BatchRequest{Items: []SummarizeRequest{{Trajectory: trip}, {Trajectory: trip, K: 2}}})
	batchDefaults := mustMarshal(t, BatchRequest{Items: []SummarizeRequest{{Trajectory: trip}, {}}, K: 3, Region: "default"})

	cases := []struct {
		name  string
		batch bool
		body  []byte
		fast  bool
	}{
		{"canonical", false, canon, true},
		{"trailing whitespace", false, append(append([]byte(nil), canon...), " \r\n\t"...), true},
		{"whitespace everywhere", false, spread(canon), true},
		{"non-ASCII id", false, replace(`"trip-00000"`, `"trip-é-北京"`), true},
		{"k", false, prefix(`"k":2`), true},
		{"k negative zero", false, prefix(`"k":-0`), true},
		{"region", false, prefix(`"region":"default"`), true},
		{"unknown region", false, prefix(`"region":"atlantis"`), true},
		{"exponent floats", false, exponents, true},
		{"+08:00 timestamps", false, mustMarshal(t, SummarizeRequest{Trajectory: inZone(trip, time.FixedZone("CST", 8*3600))}), true},
		{"-03:30 timestamps", false, mustMarshal(t, SummarizeRequest{Trajectory: inZone(trip, time.FixedZone("", -3*3600-1800))}), true},
		{"samples null", false, []byte(`{"trajectory":{"id":"n","samples":null}}`), true},
		{"samples empty", false, []byte(`{"trajectory":{"id":"e","samples":[]}}`), true},
		{"trajectory null", false, []byte(`{"trajectory":null}`), true},
		{"empty object", false, []byte(`{}`), true},

		{"case-variant key", false, replace(`"trajectory"`, `"Trajectory"`), false},
		{"case-variant nested key", false, bytes.ReplaceAll(canon, []byte(`"Lat"`), []byte(`"lat"`)), false},
		{"unknown key", false, prefix(`"extra":[1,{"a":null},"s"]`), false},
		{"escaped id", false, replace(`"trip-00000"`, `"trip-\u00e9"`), false},
		{"escaped key", false, replace(`"trajectory"`, `"\u0074rajectory"`), false},
		{"invalid UTF-8 id", false, replace(`"trip-00000"`, "\"trip-\xff\xfe\""), false},
		{"control character in id", false, replace(`"trip-00000"`, "\"trip\x01\""), false},
		{"k null", false, prefix(`"k":null`), false},
		{"k 1.0", false, prefix(`"k":1.0`), false},
		{"k 1e2", false, prefix(`"k":1e2`), false},
		{"k overflow", false, prefix(`"k":99999999999999999999`), false},
		{"k leading zero", false, prefix(`"k":01`), false},
		{"k string", false, prefix(`"k":"2"`), false},
		{"t null", false, replace(string(firstTime), `"t":null`), false},
		{"float out of range", false, replace(`"Lat":`, `"Lat":1e400,"Lng":`), false},
		{"duplicate key", false, prefix(`"k":2,"k":3`), false},
		{"duplicate trajectory", false, prefix(`"trajectory":{"id":"first","object":"kept"}`), false},
		{"top-level null", false, []byte(`null`), false},
		{"top-level array", false, []byte(`[]`), false},
		{"empty body", false, nil, false},
		{"truncated", false, canon[:len(canon)/2], false},
		{"trailing garbage", false, append(append([]byte(nil), canon...), "garbage"...), false},

		{"batch canonical", true, batch, true},
		{"batch defaults", true, batchDefaults, true},
		{"batch whitespace everywhere", true, spread(batch), true},
		{"batch empty items", true, []byte(`{"items":[]}`), true},
		{"batch items null", true, []byte(`{"items":null}`), false},
		{"batch null item", true, append([]byte(`{"items":[null,`), bytes.TrimPrefix(batch, []byte(`{"items":[`))...), false},
		{"batch case-variant key", true, bytes.Replace(batch, []byte(`"items"`), []byte(`"ITEMS"`), 1), false},
		{"batch trailing garbage", true, append(append([]byte(nil), batch...), "xyz"...), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, oracle, fast := "/summarize", oracleSummarize, fastSummarize
			if tc.batch {
				path, oracle, fast = "/summarize/batch", oracleBatch, fastBatch
			}
			if got := fast(tc.body); got != tc.fast {
				t.Errorf("fast path accepted = %v, want %v", got, tc.fast)
			}
			got := postRaw(t, srv, path, string(tc.body))
			want := oracle(srv, tc.body)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("response differs from the encoding/json oracle\ngot:  %d %s\nwant: %d %s",
					got.Code, got.Body.String(), want.Code, want.Body.String())
			}
		})
	}
}

// TestTrailingDataRejected pins the body contract: exactly one JSON
// object, optionally followed by whitespace. A decoder that stops after
// the first value would answer these with 200.
func TestTrailingDataRejected(t *testing.T) {
	srv, trip := testServer(t)
	single := string(mustMarshal(t, SummarizeRequest{Trajectory: trip}))
	batch := string(mustMarshal(t, BatchRequest{Items: []SummarizeRequest{{Trajectory: trip}}}))
	for _, tc := range []struct{ path, body string }{
		{"/summarize", single + "garbage"},
		{"/summarize", single + "]]]"},
		{"/summarize", single + `{"trajectory":null}`},
		{"/summarize/batch", batch + "xyz"},
	} {
		rec := postRaw(t, srv, tc.path, tc.body)
		var resp SummarizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: response is not JSON: %v", tc.path, err)
		}
		if rec.Code != http.StatusBadRequest || !strings.HasPrefix(resp.Error, "bad request body: ") {
			t.Errorf("%s with trailing %q = %d %q, want 400 bad request body",
				tc.path, tc.body[len(tc.body)-3:], rec.Code, resp.Error)
		}
	}
}

// TestFastPathCoversMarshalledRequests guards the optimisation itself:
// every body json.Marshal emits for a simulated fleet, single or batch,
// must take the fast path and decode to the value encoding/json gives.
func TestFastPathCoversMarshalledRequests(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 5, Cols: 5, Seed: 3})
	var trips []*traj.Raw
	for i, opts := range []simulate.FleetOptions{
		{NumTrips: 12, Seed: 4, FixedHour: -1},
		{NumTrips: 6, Seed: 5, FixedHour: 8, SampleInterval: time.Second},
		{NumTrips: 6, Seed: 6, FixedHour: 17, SampleInterval: 30 * time.Second, Calm: true},
	} {
		for j, tr := range simulate.GenerateFleet(city, opts) {
			raw := tr.Raw
			switch (i + j) % 4 {
			case 1:
				raw = inZone(raw, time.FixedZone("CST", 8*3600))
			case 2:
				raw = inZone(raw, time.FixedZone("", -9*3600-1800))
			case 3:
				raw = inZone(raw, time.Local)
			}
			trips = append(trips, raw)
		}
	}
	// Edge values json.Marshal writes in exponent form or as -0, a
	// nanosecond timestamp, a nil and an empty samples slice.
	odd := smallTrip()
	odd.Object = ""
	odd.Samples[0].Pt = geo.Point{Lat: 1e-7, Lng: math.Copysign(0, -1)}
	odd.Samples[1].Pt = geo.Point{Lat: 5e-324, Lng: 1e21}
	odd.Samples[2].T = odd.Samples[2].T.Add(123456789 * time.Nanosecond)
	trips = append(trips, odd, &traj.Raw{ID: "nil"}, &traj.Raw{ID: "empty", Samples: []traj.Sample{}})

	var items []SummarizeRequest
	for i, raw := range trips {
		req := SummarizeRequest{Trajectory: raw, K: i % 3}
		if i%5 == 0 {
			req.Region = "region-" + strconv.Itoa(i)
		}
		items = append(items, req)
	}
	items = append(items, SummarizeRequest{})

	encoded := func(v any) [][]byte {
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(v); err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{mustMarshal(t, v), enc.Bytes(), indented}
	}
	for i := range items {
		for _, body := range encoded(items[i]) {
			if !fastSummarize(body) {
				t.Fatalf("fast path declined a marshalled request: %.200s", body)
			}
			checkDecode(t, body, (*decoder).summarizeRequest)
		}
	}
	for _, req := range []BatchRequest{
		{Items: items},
		{Items: items[:3], K: 2, Region: "beijing"},
		{Items: []SummarizeRequest{}},
	} {
		for _, body := range encoded(req) {
			if !fastBatch(body) {
				t.Fatalf("fast path declined a marshalled batch: %.200s", body)
			}
			checkDecode(t, body, (*decoder).batchRequest)
		}
	}
}

// decodeBenchBody is a POST /summarize body of about 85 samples — the
// size of a short-dense request at 5 s sampling.
func decodeBenchBody(tb testing.TB) []byte {
	tb.Helper()
	city := simulate.NewCity(simulate.CityOptions{Rows: 7, Cols: 7, Seed: 51})
	var best *traj.Raw
	for _, tr := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 40, Seed: 54, FixedHour: 9}) {
		if best == nil || abs(len(tr.Raw.Samples)-85) < abs(len(best.Samples)-85) {
			best = tr.Raw
		}
	}
	return mustMarshal(tb, SummarizeRequest{Trajectory: best})
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// maxDecodeAllocs pins the one-pass parse of decodeBenchBody: the
// trajectory, its id and object strings, and its samples slice; the
// samples scratch is reused. encoding/json makes 21 allocations on the
// same body. The pooled body buffer is left out of the pin because the
// race detector makes sync.Pool drop objects at random.
const maxDecodeAllocs = 4

func TestDecodeAllocs(t *testing.T) {
	body := decodeBenchBody(t)
	var d decoder
	allocs := testing.AllocsPerRun(200, func() {
		d.data, d.pos = body, 0
		var req SummarizeRequest
		if !d.summarizeRequest(&req) || !d.end() {
			t.Fatal("fast path declined the benchmark body")
		}
	})
	if allocs > maxDecodeAllocs {
		t.Errorf("one-pass parse made %.0f allocs, want ≤ %d", allocs, maxDecodeAllocs)
	}
}

// BenchmarkDecodeRequest compares the one-pass decoder with
// encoding/json on a short-dense-sized POST /summarize body.
func BenchmarkDecodeRequest(b *testing.B) {
	body := decodeBenchBody(b)
	b.Run("onepass", func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			var req SummarizeRequest
			if err := decodeBody(rd, &req, (*decoder).summarizeRequest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SummarizeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
