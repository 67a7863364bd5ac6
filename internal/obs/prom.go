package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text
// exposition format served by /metrics?format=prometheus.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
var escapeLabelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeHelp escapes a HELP string: backslash and newline (quotes are
// legal in help text).
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// formatFloat renders a sample value the way Prometheus expects:
// shortest representation that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writePromHeader writes the # HELP and # TYPE comment lines for one
// metric family.
func writePromHeader(b *bytes.Buffer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp.Replace(help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// writePromSample writes one sample line with label pairs (key1, val1,
// key2, val2, ...), values escaped.
func writePromSample(b *bytes.Buffer, name, value string, pairs ...string) {
	b.WriteString(name)
	if len(pairs) >= 2 {
		b.WriteByte('{')
		for i := 0; i+1 < len(pairs); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, `%s="%s"`, pairs[i], escapeLabelValue.Replace(pairs[i+1]))
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %s\n", value)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format, families in registration order and each family's
// series in its collector's order, so scrapes are stable.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteText renders the flat `name value` format: the unlabeled sample
// lines of the Prometheus body, in the same order.
func (r *Registry) WriteText(w io.Writer) error { return r.write(w, true) }

func (r *Registry) write(w io.Writer, flat bool) error {
	r.mu.Lock()
	families := append([]family(nil), r.families...)
	r.mu.Unlock()
	var b bytes.Buffer
	for _, f := range families {
		samples := f.collect()
		if !flat && len(samples) > 0 {
			writePromHeader(&b, f.name, f.help, f.typ)
		}
		for _, s := range samples {
			if !flat || len(s.Labels) == 0 {
				writePromSample(&b, f.name+s.suffix, s.Value, s.Labels...)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// Handler serves GET /metrics in the three formats both daemons expose:
// the flat text (the default, or ?format=text), the Prometheus
// exposition (?format=prometheus) and the JSON document that snapshot
// returns (?format=json).
func (r *Registry) Handler(snapshot func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		// A failed write means the scraper hung up; there is no one
		// left to tell.
		switch format := strings.ToLower(req.URL.Query().Get("format")); format {
		case "", "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = r.WriteText(w)
		case "prometheus", "prom":
			w.Header().Set("Content-Type", PromContentType)
			_ = r.WritePrometheus(w)
		case "json":
			writeJSON(w, http.StatusOK, snapshot())
		default:
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(
				"unknown metrics format %q (want text, prometheus, or json)", format)})
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
