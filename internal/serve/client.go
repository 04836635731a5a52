package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/trace"
)

// Client is the Go client for the nmsimd API — the remote path behind
// cmd/sweep -server and cmd/nmsim -server, and the test harness's way of
// driving a Server end to end. Job timeouts are the caller's business:
// set HTTP.Timeout or pass deadline contexts.
type Client struct {
	BaseURL string       // e.g. "http://127.0.0.1:8080"
	HTTP    *http.Client // nil means http.DefaultClient
}

// ValidateServerURL checks a -server flag value: an absolute http(s) URL
// with a host. Shared by the cmd front ends so their validation agrees.
func ValidateServerURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("-server %q: %v", s, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("-server %q must be an http:// or https:// URL", s)
	}
	if u.Host == "" {
		return fmt.Errorf("-server %q has no host", s)
	}
	return nil
}

// httpClient resolves the transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError turns a non-2xx response into an error carrying the server's
// JSON envelope.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e errorBody
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		if e.Kind != "" {
			return fmt.Errorf("serve: server %s (%s): %s", resp.Status, e.Kind, e.Error)
		}
		return fmt.Errorf("serve: server %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("serve: server %s: %s", resp.Status, bytes.TrimSpace(body))
}

// postJSON POSTs a JSON body and returns the response on 2xx.
func (c *Client) postJSON(ctx context.Context, path string, v any) (*http.Response, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// UploadTraceBytes ships an already-serialized trace file — either the v2
// stream or the columnar v3 layout; the server sniffs the magic — and
// returns its metadata. Both serializations of one logical trace land on
// the same digest.
func (c *Client) UploadTraceBytes(ctx context.Context, data []byte) (TraceInfo, error) {
	return c.upload(ctx, bytes.NewReader(data), int64(len(data)))
}

// upload POSTs size bytes of body to /v1/traces, with that Content-Length.
func (c *Client) upload(ctx context.Context, body io.Reader, size int64) (TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/traces", body)
	if err != nil {
		return TraceInfo{}, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return TraceInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return TraceInfo{}, apiError(resp)
	}
	var info TraceInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// Record asks the server to record an algorithm trace and returns its
// metadata.
func (c *Client) Record(ctx context.Context, req RecordRequest) (TraceInfo, error) {
	resp, err := c.postJSON(ctx, "/v1/traces/record", req)
	if err != nil {
		return TraceInfo{}, err
	}
	defer resp.Body.Close()
	var info TraceInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// FetchTrace downloads a stored trace by digest: the server sends its v3
// image, which is opened in memory and — the bytes are untrusted — verified
// before it is handed out as a trace over its columns.
func (c *Client) FetchTrace(ctx context.Context, digest string) (*trace.Trace, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/traces/"+digest, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp)
	}
	image, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	col, err := trace.OpenBytes(image)
	if err == nil {
		err = col.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("serve: fetched trace %s: %w", digest, err)
	}
	return col.AsTrace(), nil
}

// SubmitJob runs one replay cell and returns the response body bytes
// (exactly as served — the byte-identity unit), the decoded response, and
// whether the server answered from its result cache.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (raw []byte, jr JobResponse, cacheHit bool, err error) {
	req.Stream = false
	resp, err := c.postJSON(ctx, "/v1/jobs", req)
	if err != nil {
		return nil, JobResponse{}, false, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, JobResponse{}, false, err
	}
	cacheHit = resp.Header.Get("X-Nmsimd-Cache") == "hit"
	err = json.Unmarshal(raw, &jr)
	return raw, jr, cacheHit, err
}

// Sweep runs a whole experiment server-side, returning the rendered
// report body and the failed-cell count (the local exit-code contract's
// remote half).
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (body []byte, failed int, err error) {
	resp, err := c.postJSON(ctx, "/v1/sweeps", req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if h := resp.Header.Get("X-Nmsimd-Failed"); h != "" {
		failed, _ = strconv.Atoi(h)
	}
	return body, failed, nil
}

// SweepTo is Sweep writing the report to w: RunSweep's remote twin, so a
// front end picks its transport and nothing else.
func (c *Client) SweepTo(ctx context.Context, w io.Writer, req SweepRequest) (int, error) {
	body, failed, err := c.Sweep(ctx, req)
	if err != nil {
		return 0, err
	}
	_, err = w.Write(body)
	return failed, err
}

// Stats fetches the serving counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return Stats{}, apiError(resp)
	}
	var st Stats
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
