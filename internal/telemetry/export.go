package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus exports the current (cumulative) state of every series
// in Prometheus text exposition format, in registration order. HELP and
// TYPE lines are emitted once per metric name, before its first series.
// Histograms expand into cumulative `_bucket{le=...}` series plus `_sum`
// and `_count`. Every id is rendered when its descriptor is interned; the
// export only appends values, so a live registry and a sealed one render
// the same way.
func (r *Registry) WritePrometheus(w io.Writer) error {
	const flushAt = 32 << 10
	b := make([]byte, 0, 4<<10)
	for _, n := range r.at.seq {
		d := n.d
		if n.describe {
			b = appendComment(b, "# HELP ", d.name, d.help)
			b = appendComment(b, "# TYPE ", d.name, d.kind.String())
		}
		v := r.values(n)
		if d.kind == KindHistogram {
			nb := len(d.bounds)
			var cum float64
			for i := 0; i < nb; i++ {
				cum += v[i]
				b = appendSample(b, d.bucketIDs[i], cum)
			}
			b = appendSample(b, d.bucketIDs[nb], v[nb+2])
			b = appendSample(b, d.sumID, v[nb+1])
			b = appendSample(b, d.countID, v[nb+2])
		} else {
			b = appendSample(b, d.id, v[0])
		}
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(b)
	return err
}

// appendComment appends one `# HELP name text` or `# TYPE name kind` line.
func appendComment(b []byte, prefix, name, text string) []byte {
	b = append(b, prefix...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, text...)
	return append(b, '\n')
}

// appendSample appends one `id value` line.
func appendSample(b []byte, id string, v float64) []byte {
	b = append(b, id...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

// formatFloat renders a value the shortest way that round-trips, as
// appendSample does.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateExposition is a trivial Prometheus text-format checker (the CI
// lint gate behind `vprobe-explain check`): every line must be blank, a
// `# HELP`/`# TYPE` comment, or a `series value` sample whose name obeys
// the metric grammar, whose labels parse, and whose family has a TYPE
// declared earlier in the stream. It returns the distinct series and
// total sample counts.
func ValidateExposition(data []byte) (seriesCount, samples int, err error) {
	typed := make(map[string]string)
	seen := make(map[string]bool)
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line string
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = string(data[:i])
			data = data[i+1:]
		} else {
			line = string(data)
			data = nil
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, 0, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validMetricName(name) {
				return 0, 0, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return 0, 0, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, 0, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				typed[name] = typ
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return 0, 0, fmt.Errorf("line %d: no value in sample %q", lineNo, line)
		}
		id, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, fmt.Errorf("line %d: bad value %q: %w", lineNo, val, err)
		}
		name := id
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				return 0, 0, fmt.Errorf("line %d: unterminated label block in %q", lineNo, id)
			}
			name = id[:i]
			if err := validateLabels(id[i+1 : len(id)-1]); err != nil {
				return 0, 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		if !validMetricName(name) {
			return 0, 0, fmt.Errorf("line %d: invalid series name %q", lineNo, name)
		}
		if familyOf(name, typed) == "" {
			return 0, 0, fmt.Errorf("line %d: series %q has no TYPE declaration", lineNo, name)
		}
		if !seen[id] {
			seen[id] = true
			seriesCount++
		}
		samples++
	}
	if samples == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	return seriesCount, samples, nil
}

// familyOf resolves a sample name to its declared family: the name
// itself, or — for histogram/summary components — the name with its
// _bucket/_sum/_count suffix stripped.
func familyOf(name string, typed map[string]string) string {
	if _, ok := typed[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if t, ok := typed[base]; ok && (t == "histogram" || t == "summary") {
			return base
		}
	}
	return ""
}

// validateLabels checks a k="v",... label block.
func validateLabels(block string) error {
	if block == "" {
		return nil
	}
	for _, pair := range splitLabels(block) {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return fmt.Errorf("label %q has no '='", pair)
		}
		k, v := pair[:eq], pair[eq+1:]
		if !validMetricName(k) || strings.ContainsAny(k, ":") {
			return fmt.Errorf("invalid label name %q", k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("label value %s not quoted", v)
		}
	}
	return nil
}

// splitLabels splits on commas outside quotes.
func splitLabels(block string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, block[start:i])
				start = i + 1
			}
		}
	}
	return append(out, block[start:])
}
