// Package gio reads and writes the line-oriented text formats for data
// graphs, pattern graphs and update streams used by the command-line
// tools. The formats are deliberately trivial to produce from other
// systems:
//
// Graph (.graph):
//
//	graph <n>
//	node <id> <attr>=<value> ...
//	edge <from> <to> [color]
//
// Pattern (.pattern):
//
//	pattern <n>
//	node <id> <predicate>          # predicate syntax of pattern.ParsePredicate
//	edge <from> <to> <bound|*> [color]
//
// Updates (.updates):
//
//   - <from> <to>
//   - <from> <to>
//
// Blank lines and lines starting with # are ignored. Node lines may be
// omitted for attribute-less nodes.
package gio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpm/internal/graph"
	"gpm/internal/incremental"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

// MaxNodes caps the node count a graph or pattern header may declare:
// the readers allocate O(n) adjacency state up front, so an unchecked
// header lets a 20-byte input demand petabytes (found by FuzzReadGraph).
// The limit comfortably exceeds the paper's largest dataset; graphs
// beyond it should be built programmatically.
const MaxNodes = 1 << 20

// WriteGraph serialises g.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %d\n", g.N())
	for v := 0; v < g.N(); v++ {
		a := g.Attr(v)
		if len(a) == 0 {
			continue
		}
		fmt.Fprintf(bw, "node %d", v)
		for _, k := range a.Keys() {
			fmt.Fprintf(bw, " %s=%s", k, a[k].String())
		}
		fmt.Fprintln(bw)
	}
	for _, e := range g.EdgeList() {
		c, _ := g.Color(int(e[0]), int(e[1]))
		if c != "" {
			fmt.Fprintf(bw, "edge %d %d %s\n", e[0], e[1], c)
		} else {
			fmt.Fprintf(bw, "edge %d %d\n", e[0], e[1])
		}
	}
	return bw.Flush()
}

// ReadGraph parses a graph written by WriteGraph.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	sc := newScanner(r)
	var g *graph.Graph
	for sc.next() {
		fields := sc.fields
		switch fields[0] {
		case "graph":
			if g != nil {
				return nil, sc.errf("duplicate graph header")
			}
			if len(fields) != 2 {
				return nil, sc.errf("bad graph header")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, sc.errf("bad graph header")
			}
			if n > MaxNodes {
				return nil, sc.errf("graph header declares %d nodes (max %d)", n, MaxNodes)
			}
			g = graph.New(n)
		case "node":
			if g == nil {
				return nil, sc.errf("node before graph header")
			}
			if len(fields) < 2 {
				return nil, sc.errf("bad node line")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= g.N() {
				return nil, sc.errf("bad node id %q", fields[1])
			}
			attrs := graph.Attrs{}
			for _, kv := range fields[2:] {
				eq := strings.IndexByte(kv, '=')
				if eq <= 0 {
					return nil, sc.errf("bad attribute %q", kv)
				}
				// Keys containing quotes cannot survive re-serialisation
				// (the writer does not quote keys), so reject them.
				if strings.ContainsAny(kv[:eq], "\"\\") {
					return nil, sc.errf("bad attribute name %q", kv[:eq])
				}
				attrs[kv[:eq]] = value.Parse(kv[eq+1:])
			}
			g.SetAttr(id, attrs)
		case "edge":
			if g == nil {
				return nil, sc.errf("edge before graph header")
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, sc.errf("bad edge line")
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || u >= g.N() || v < 0 || v >= g.N() {
				return nil, sc.errf("bad edge endpoints")
			}
			color := ""
			if len(fields) == 4 {
				color = fields[3]
			}
			if !g.AddColoredEdge(u, v, color) {
				return nil, sc.errf("duplicate edge %d->%d", u, v)
			}
		default:
			return nil, sc.errf("unknown directive %q", fields[0])
		}
	}
	if sc.err != nil {
		return nil, sc.err
	}
	if g == nil {
		return nil, fmt.Errorf("gio: missing graph header")
	}
	return g, nil
}

// WritePattern serialises p.
func WritePattern(w io.Writer, p *pattern.Pattern) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pattern %d\n", p.N())
	for u := 0; u < p.N(); u++ {
		fmt.Fprintf(bw, "node %d %s\n", u, p.Pred(u).String())
	}
	for _, e := range p.Edges() {
		if e.Color != "" {
			fmt.Fprintf(bw, "edge %d %d %s %s\n", e.From, e.To, pattern.FormatEdgeBound(e), e.Color)
		} else {
			fmt.Fprintf(bw, "edge %d %d %s\n", e.From, e.To, pattern.FormatEdgeBound(e))
		}
	}
	return bw.Flush()
}

// ReadPattern parses a pattern written by WritePattern.
func ReadPattern(r io.Reader) (*pattern.Pattern, error) {
	sc := newScanner(r)
	var p *pattern.Pattern
	n := -1
	for sc.next() {
		fields := sc.fields
		switch fields[0] {
		case "pattern":
			if p != nil {
				return nil, sc.errf("duplicate pattern header")
			}
			if len(fields) != 2 {
				return nil, sc.errf("bad pattern header")
			}
			var err error
			n, err = strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, sc.errf("bad pattern header")
			}
			if n > MaxNodes {
				return nil, sc.errf("pattern header declares %d nodes (max %d)", n, MaxNodes)
			}
			p = pattern.New()
			for i := 0; i < n; i++ {
				p.AddNode(pattern.Predicate{})
			}
		case "node":
			if p == nil {
				return nil, sc.errf("node before pattern header")
			}
			if len(fields) < 2 {
				return nil, sc.errf("bad node line")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= n {
				return nil, sc.errf("bad pattern node id %q", fields[1])
			}
			pred, err := pattern.ParsePredicate(strings.Join(fields[2:], " "))
			if err != nil {
				return nil, sc.errf("%v", err)
			}
			// Rebuild with the parsed predicate in place.
			replacePred(p, id, pred)
		case "edge":
			if p == nil {
				return nil, sc.errf("edge before pattern header")
			}
			if len(fields) != 4 && len(fields) != 5 {
				return nil, sc.errf("bad pattern edge line")
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			lo, hi, err3 := pattern.ParseBoundRange(fields[3])
			if err1 != nil || err2 != nil {
				return nil, sc.errf("bad edge endpoints")
			}
			if err3 != nil {
				return nil, sc.errf("%v", err3)
			}
			color := ""
			if len(fields) == 5 {
				color = fields[4]
			}
			var err error
			if lo > 0 {
				_, err = p.AddRangeEdge(from, to, lo, hi, color)
			} else {
				_, err = p.AddColoredEdge(from, to, hi, color)
			}
			if err != nil {
				return nil, sc.errf("%v", err)
			}
		default:
			return nil, sc.errf("unknown directive %q", fields[0])
		}
	}
	if sc.err != nil {
		return nil, sc.err
	}
	if p == nil {
		return nil, fmt.Errorf("gio: missing pattern header")
	}
	return p, nil
}

// replacePred swaps the predicate of one node. Pattern has no setter by
// design (predicates are otherwise immutable); rebuilding through a fresh
// node would lose edges, so gio reaches for the supported update path:
// clone node predicates into a new pattern is wasteful here, and instead
// Pattern provides SetPred via this package-level helper.
func replacePred(p *pattern.Pattern, id int, pred pattern.Predicate) {
	p.SetPred(id, pred)
}

// WriteUpdates serialises an update stream.
func WriteUpdates(w io.Writer, ups []incremental.Update) error {
	bw := bufio.NewWriter(w)
	for _, u := range ups {
		sign := "-"
		if u.Insert {
			sign = "+"
		}
		fmt.Fprintf(bw, "%s %d %d\n", sign, u.U, u.V)
	}
	return bw.Flush()
}

// ReadUpdates parses an update stream.
func ReadUpdates(r io.Reader) ([]incremental.Update, error) {
	sc := newScanner(r)
	var ups []incremental.Update
	for sc.next() {
		fields := sc.fields
		if len(fields) != 3 || (fields[0] != "+" && fields[0] != "-") {
			return nil, sc.errf("bad update line")
		}
		u, err1 := strconv.Atoi(fields[1])
		v, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, sc.errf("bad update endpoints")
		}
		if fields[0] == "+" {
			ups = append(ups, incremental.Ins(u, v))
		} else {
			ups = append(ups, incremental.Del(u, v))
		}
	}
	if sc.err != nil {
		return nil, sc.err
	}
	return ups, nil
}

// scanner is a line scanner that skips blanks/comments, tracks line
// numbers and splits fields outside of double quotes.
type scanner struct {
	sc     *bufio.Scanner
	line   int
	fields []string
	err    error
}

func newScanner(r io.Reader) *scanner {
	sc := bufio.NewScanner(r)
	// A nil buffer starts at 4 KiB and grows on demand up to the cap, so
	// parsing a short pattern costs a short buffer.
	sc.Buffer(nil, 16*1024*1024)
	return &scanner{sc: sc}
}

func (s *scanner) next() bool {
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s.fields = splitQuoted(s.fields[:0], text)
		if len(s.fields) > 0 {
			return true
		}
	}
	s.err = s.sc.Err()
	return false
}

func (s *scanner) errf(format string, args ...interface{}) error {
	return fmt.Errorf("gio: line %d: %s", s.line, fmt.Sprintf(format, args...))
}

// splitQuoted splits s on whitespace, appending the fields to out, but
// keeps double-quoted spans intact. Inside quotes a backslash escapes the
// next character, matching the strconv.Quote escaping the writers emit,
// so string values containing quotes round-trip. The scanner hands it
// its previous line's fields, so one slice serves every line.
func splitQuoted(out []string, s string) []string {
	// Every byte but an unquoted space or tab belongs to a field, so each
	// field is a substring of s.
	start := -1 // where the current field began; -1 between fields
	inQuote, escaped := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !inQuote && (c == ' ' || c == '\t') {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
		switch {
		case escaped:
			escaped = false
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}
