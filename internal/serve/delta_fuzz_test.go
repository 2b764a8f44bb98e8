package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// FuzzDeltaRequest decodes arbitrary bytes as a delta body through
// FrontEnd.Decode, the decoder both doors use. Whenever it accepts a body,
// the body must hold exactly one JSON value, so nothing after it is
// dropped unread. A generic decode of the same bytes must show every
// insert and delete element as an array of exactly two integers equal to
// the decoded pair — so no edge is zero-filled or truncated on the way
// in. Every carried parent count must name a clique size in
// [2, kernel.MaxCliqueSize] and be non-negative, and the request must
// survive a re-encode and a second decode unchanged.
func FuzzDeltaRequest(f *testing.F) {
	for _, seed := range []string{
		`{"insert":[[5]]}`,
		`{"insert":[[0,1,2]]}`,
		`{"insert":[[]]}`,
		`{"delete":[[5]]}`,
		`{"delete":[[0,1,2]]}`,
		`{"delete":[[]]}`,
		`{"insert":[[0,2],[0,3]],"delete":[[0,1]],"watch":["clique:3","cycle:4"]}`,
		`{"insert":[[0,2]]} {"delete":[[0,1]]}`,
		`{"insert":[[0,2]]}garbage`,
		`{"insert":[[0,2]],"parent_counts":{"3":120,"4":7}}`,
		`{"insert":[[0,2]],"parent_counts":{"9":1}}`,
		`{"insert":[[0,2]],"parent_counts":{"3":-1}}`,
	} {
		f.Add([]byte(seed))
	}
	front := serve.NewFrontEnd("worker", "job", serve.Config{}, nil, nil, serve.FrontMetrics{})
	decode := func(body []byte) (serve.DeltaRequest, bool) {
		var req serve.DeltaRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/graphs/x/delta", bytes.NewReader(body))
		ok := front.Decode(httptest.NewRecorder(), r, &req, "delta")
		return req, ok
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := decode(body)
		if !ok {
			return
		}
		if n, err := jsonValues(body); err != nil || n != 1 {
			t.Fatalf("Decode accepted %q, which holds %d JSON values (%v), want exactly one", body, n, err)
		}
		ins, del, err := genericEdgeLists(body)
		if err != nil {
			t.Fatalf("Decode accepted %q but a generic decode fails: %v", body, err)
		}
		checkWireEdges(t, body, "insert", req.Insert, ins)
		checkWireEdges(t, body, "delete", req.Delete, del)
		for size, cnt := range req.ParentCounts {
			if size < 2 || size > kernel.MaxCliqueSize || cnt < 0 {
				t.Fatalf("Decode accepted %q with a carried count %d for clique size %d", body, cnt, size)
			}
		}

		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, ok := decode(enc)
		if !ok {
			t.Fatalf("re-encoded %q does not decode", enc)
		}
		if !slices.Equal(req.Insert, again.Insert) || !slices.Equal(req.Delete, again.Delete) ||
			!slices.Equal(req.Watch, again.Watch) || !maps.Equal(req.ParentCounts, again.ParentCounts) {
			t.Fatalf("round trip of %q: %+v became %+v", body, req, again)
		}
	})
}

// jsonValues counts the JSON values in body, up to the first one that
// fails to decode.
func jsonValues(body []byte) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	for n := 0; ; n++ {
		var v any
		switch err := dec.Decode(&v); {
		case err == io.EOF:
			return n, nil
		case err != nil:
			return n, err
		}
	}
}

// genericEdgeLists walks the top-level object of body in order and returns
// the last value whose key matches "insert" or "delete" the way
// encoding/json matches field names (case-insensitively, last wins).
func genericEdgeLists(body []byte) (ins, del any, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil || tok == nil { // a null body decodes to the zero request
		return nil, nil, err
	}
	for dec.More() {
		if tok, err = dec.Token(); err != nil {
			return nil, nil, err
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			return nil, nil, err
		}
		switch key, _ := tok.(string); {
		case strings.EqualFold(key, "insert"):
			ins = v
		case strings.EqualFold(key, "delete"):
			del = v
		}
	}
	return ins, del, nil
}

// checkWireEdges requires the decoded edges to be exactly the generic
// list's elements, each an array of two integers.
func checkWireEdges(t *testing.T, body []byte, name string, got [][2]int, generic any) {
	t.Helper()
	list, _ := generic.([]any)
	if len(list) != len(got) {
		t.Fatalf("%q: %s decoded to %v, body has %v", body, name, got, generic)
	}
	for i, el := range list {
		pair, _ := el.([]any)
		if len(pair) != 2 {
			t.Fatalf("%q: %s element %d is %v, decoded as edge %v", body, name, i, el, got[i])
		}
		for j, x := range pair {
			num, _ := x.(json.Number)
			v, err := strconv.ParseInt(string(num), 10, 64)
			if err != nil || int(v) != got[i][j] {
				t.Fatalf("%q: %s element %d is %v, decoded as edge %v", body, name, i, el, got[i])
			}
		}
	}
}
