package serve

import (
	"bytes"
	"context"
	"io"
	"runtime"

	"repro/internal/trace"
)

// The daemon's tests drive these two requests through a Client; no command
// sends them.

// UploadTrace ships a trace's v3 image to the store — its sealed segments,
// streamed where they lie, never copied into one buffer — and returns its
// metadata (digest included). The daemon opens and verifies the image; a
// re-upload of one it holds is answered by its streaming compare.
func (c *Client) UploadTrace(ctx context.Context, tr *trace.Trace) (TraceInfo, error) {
	col := tr.Columns()
	segs, err := col.Segments()
	if err != nil {
		return TraceInfo{}, err
	}
	defer runtime.KeepAlive(col) // a mapped image stays mapped while it is sent
	body := make([]io.Reader, len(segs))
	for i, s := range segs {
		body[i] = bytes.NewReader(s)
	}
	return c.upload(ctx, io.MultiReader(body...), col.Size())
}

// StreamJob runs one replay cell with NDJSON streaming, forwarding every
// line to out verbatim.
func (c *Client) StreamJob(ctx context.Context, req JobRequest, out io.Writer) error {
	req.Stream = true
	resp, err := c.postJSON(ctx, "/v1/jobs", req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(out, resp.Body)
	return err
}
