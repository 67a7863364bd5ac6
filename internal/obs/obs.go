// Package obs is the observability layer shared by the service stack:
// metrics (atomic counters and latency histograms keyed by {machine,
// kernel} — one series per Table 3 cell — and scrape-time families) in
// one ordered Registry per daemon, whose handler renders /metrics as
// flat text or hand-rolled Prometheus text exposition, request-ID
// propagation with an HTTP access-log middleware over log/slog, and the
// span-style lifecycle events the job tracer records.
//
// Everything here is stdlib-only and allocation-conscious: metric
// updates on the service hot path are a map read under an RWMutex plus
// an atomic add, never a sort or a lock shared with exposition.
package obs
