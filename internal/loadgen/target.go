package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pac/internal/generate"
	"pac/internal/telemetry"
)

// Target is where replayed requests land. A *serve.Server is one as it
// stands (in-process dispatch with the same per-user attribution and
// cancellation paths as the HTTP face, used by tests and the default
// pac-loadgen mode); HTTPTarget reaches a pac-serve instance over the
// network.
type Target interface {
	ClassifyFor(ctx context.Context, user int, enc [][]int, lens []int) ([]int, error)
	GenerateFor(ctx context.Context, user int, enc [][]int, lens []int, opts generate.Options) ([][]int, error)
}

// HTTPTarget replays against a pac-serve API base URL (e.g.
// "http://127.0.0.1:8080").
type HTTPTarget struct {
	Base   string
	Client *http.Client
}

func (t HTTPTarget) post(ctx context.Context, path string, body, out interface{}) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	url := strings.TrimRight(t.Base, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc, ok := telemetry.TraceFrom(ctx); ok {
		req.Header.Set(telemetry.TraceHeader, tc.HeaderValue())
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("loadgen: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ClassifyFor implements Target.
func (t HTTPTarget) ClassifyFor(ctx context.Context, user int, enc [][]int, lens []int) ([]int, error) {
	var out struct {
		Classes []int `json:"classes"`
	}
	err := t.post(ctx, "/classify", map[string]interface{}{
		"tokens": enc, "lens": lens, "user": user,
	}, &out)
	return out.Classes, err
}

// GenerateFor implements Target.
func (t HTTPTarget) GenerateFor(ctx context.Context, user int, enc [][]int, lens []int, opts generate.Options) ([][]int, error) {
	var out struct {
		Outputs [][]int `json:"outputs"`
	}
	err := t.post(ctx, "/generate", map[string]interface{}{
		"tokens": enc, "lens": lens, "user": user,
		"max_len": opts.MaxLen, "temperature": opts.Temperature,
	}, &out)
	return out.Outputs, err
}
