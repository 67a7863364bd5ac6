package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"sigkern/internal/cluster"
	"sigkern/internal/svc"
)

// conn is one client connection: an http.Client whose transport holds
// at most one TCP connection, so a generator's connection budget is
// exactly the number of conns it owns.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, strings.TrimSpace(e.body))
}

func (c *conn) post(ctx context.Context, path, contentType string, body []byte, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, &statusError{status: resp.StatusCode, body: string(msg)}
	}
	return resp, nil
}

// postJob sends POST /v1/jobs?query and returns the raw answer, read to
// the end — the caller times the round trip before decoding.
func (c *conn) postJob(ctx context.Context, body []byte, query string, hdr http.Header) ([]byte, error) {
	resp, err := c.post(ctx, "/v1/jobs?"+query, "application/json", body, hdr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// postStream sends a POST answered with an NDJSON stream and hands each
// line to fn as it arrives.
func (c *conn) postStream(ctx context.Context, path, contentType string, body []byte, fn func(line []byte) error) error {
	resp, err := c.post(ctx, path, contentType, body, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if ferr := fn(line); ferr != nil {
				return ferr
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// streamLine tells a stream's item lines (which carry "index") from its
// trailing summary (which does not).
type streamLine struct {
	Index *int `json:"index"`
}

func isSummary(line []byte) (bool, error) {
	var l streamLine
	if err := json.Unmarshal(line, &l); err != nil {
		return false, fmt.Errorf("bad stream line %q: %w", truncate(line), err)
	}
	return l.Index == nil, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// scrapeService reads a simserved's metrics snapshot.
func scrapeService(hc *http.Client, base string) (svc.Snapshot, error) {
	var s svc.Snapshot
	return s, getJSON(hc, base+"/metrics?format=json", &s)
}

// scrapeGateway reads a simgate's metrics snapshot.
func scrapeGateway(hc *http.Client, base string) (cluster.Snapshot, error) {
	var s cluster.Snapshot
	return s, getJSON(hc, base+"/metrics?format=json", &s)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
