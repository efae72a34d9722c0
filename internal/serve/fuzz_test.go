package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pac/internal/generate"
)

// Request bodies that are valid JSON and well-shaped, yet name tokens
// or lengths the model cannot take. Each used to reach the model.
var hostileBodies = []string{
	`{"tokens":[[999999,1,2]]}`,        // id past the vocabulary
	`{"tokens":[[-1,1,2]]}`,            // negative id
	`{"tokens":[[1,2,3]],"lens":[-5]}`, // negative length
	`{"tokens":[[]]}`,                  // empty row
	`{"tokens":[[1,2,3]],"lens":[50]}`, // length past the row
}

// A /generate body whose max_len asks for more decoder positions than
// the model has; /classify ignores max_len, so it is not in hostileBodies.
const longGenerateBody = `{"tokens":[[1,2,3]],"max_len":1000}`

const validBody = `{"tokens":[[1,2,3]],"max_len":4}`

// postDirect calls the handler on the test's own goroutine, so a panic
// in the request path fails the test instead of being swallowed by
// net/http's per-connection recover.
func postDirect(h http.Handler, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code
}

func TestAdmitRejectsTokensTheModelCannotTake(t *testing.T) {
	_, s, _ := httpServer(t, true)
	h := HandlerFor(s)
	for _, path := range []string{"/classify", "/generate"} {
		for _, body := range hostileBodies {
			if code := postDirect(h, path, body); code != http.StatusBadRequest {
				t.Errorf("POST %s %s: status %d, want 400", path, body, code)
			}
		}
	}
	if code := postDirect(h, "/generate", longGenerateBody); code != http.StatusBadRequest {
		t.Errorf("POST /generate %s: status %d, want 400", longGenerateBody, code)
	}
	if s.Served() != 0 || s.Canceled() != 0 || memInflight.Bytes() != 0 {
		t.Fatalf("rejected requests left a mark: served %d, canceled %d, in-flight %d B",
			s.Served(), s.Canceled(), memInflight.Bytes())
	}
	// In-process callers (loadgen's target) are behind the same check,
	// and it covers the row-length bound HTTP cannot see.
	ctx := context.Background()
	long := [][]int{make([]int, s.cfg.MaxSeq+1)}
	if _, err := s.ClassifyFor(ctx, AnonUser, long, []int{len(long[0])}); !errors.Is(err, errInvalidRequest) {
		t.Errorf("ClassifyFor(row past MaxSeq): %v, want errInvalidRequest", err)
	}
	if _, err := s.GenerateFor(ctx, AnonUser, [][]int{{1, 2}}, nil, generate.Options{MaxLen: 2}); !errors.Is(err, errInvalidRequest) {
		t.Errorf("GenerateFor(no lens): %v, want errInvalidRequest", err)
	}
	// A rejection holds nothing: a swap goes through and a well-formed
	// request is still answered.
	s.UpdateWeights(s.SnapshotWeights())
	for _, path := range []string{"/classify", "/generate"} {
		if code := postDirect(h, path, validBody); code != http.StatusOK {
			t.Errorf("POST %s %s: status %d, want 200", path, validBody, code)
		}
	}
	if s.Served() != 2 {
		t.Fatalf("served %d after two valid requests, want 2", s.Served())
	}
}

// FuzzHandler posts arbitrary bodies to both model endpoints of a tiny
// LM server. Whatever arrives, the handler answers with one of its
// documented statuses, never panics, and counts a request as served
// only when it answered 200.
func FuzzHandler(f *testing.F) {
	for _, body := range append(hostileBodies, longGenerateBody, validBody) {
		f.Add(body)
	}
	_, s, _ := httpServer(f, true)
	h := HandlerFor(s)
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 512 {
			t.Skip("keeps one execution to a couple of hundred tokens")
		}
		for _, path := range []string{"/classify", "/generate"} {
			before := s.Served()
			code := postDirect(h, path, body)
			switch code {
			case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed, StatusClientClosedRequest:
			default:
				t.Fatalf("POST %s %q: undocumented status %d", path, body, code)
			}
			if moved := s.Served() != before; moved != (code == http.StatusOK) {
				t.Fatalf("POST %s %q: status %d but served moved %d → %d", path, body, code, before, s.Served())
			}
		}
	})
}
