// Package viz renders trees, virtual rings and live token positions as
// ASCII art for the kofltrace tool — the textual counterpart of the paper's
// Figures 1 and 4.
package viz

import (
	"fmt"
	"strings"

	"kofl/internal/channel"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// Tree renders the rooted tree with one process per line, children indented
// under their parent, each edge annotated with its channel labels.
func Tree(t *tree.Tree) string {
	var b strings.Builder
	var rec func(p int, prefix string, last bool)
	rec = func(p int, prefix string, last bool) {
		connector := ""
		if p != t.Root() {
			if last {
				connector = "└─ "
			} else {
				connector = "├─ "
			}
		}
		label := t.Name(p)
		if p == t.Root() {
			label += " (root)"
		} else {
			up := t.ChannelTo(p, t.Parent(p))
			down := t.ChannelTo(t.Parent(p), p)
			label += fmt.Sprintf("  [ch%d↑ / parent ch%d↓]", up, down)
		}
		b.WriteString(prefix + connector + label + "\n")
		kids := t.Children(p)
		for i, c := range kids {
			childPrefix := prefix
			if p != t.Root() {
				if last {
					childPrefix += "   "
				} else {
					childPrefix += "│  "
				}
			}
			rec(c, childPrefix, i == len(kids)-1)
		}
	}
	rec(t.Root(), "", true)
	return b.String()
}

// Ring renders the virtual ring as a single line of hops:
// r →0 a →1 b ... (the arrow label is the sender's channel).
func Ring(t *tree.Tree) string {
	var b strings.Builder
	ring := t.EulerTour()
	for i, v := range ring {
		if i == 0 {
			b.WriteString(t.Name(v.From))
		}
		fmt.Fprintf(&b, " →%d %s", v.FromCh, t.Name(v.To))
	}
	return b.String()
}

// tokenGlyph maps message kinds to single-rune glyphs.
func tokenGlyph(k message.Kind) string {
	switch k {
	case message.Res:
		return "●"
	case message.Push:
		return "▶"
	case message.Prio:
		return "★"
	case message.Ctrl:
		return "◆"
	default:
		return "?"
	}
}

// Snapshot renders the current token placement of a simulation: per ring
// position, the tokens in flight on that channel; per process, the reserved
// tokens and held priority. Legend: ● ResT, ▶ PushT, ★ PrioT, ◆ ctrl.
func Snapshot(s *sim.Sim) string {
	var b strings.Builder
	t := s.Tree
	b.WriteString("virtual ring (● ResT  ▶ PushT  ★ PrioT  ◆ ctrl):\n")
	for _, v := range t.EulerTour() {
		c := s.Out(v.From, v.FromCh)
		glyphs := channelGlyphs(c)
		fmt.Fprintf(&b, "  %-4s →ch%d %-4s %s\n", t.Name(v.From), v.FromCh, t.Name(v.To), glyphs)
	}
	b.WriteString("processes:\n")
	for p := 0; p < t.N(); p++ {
		n := s.Node(p)
		extra := ""
		if n.HoldsPrio() {
			extra = " ★"
		}
		fmt.Fprintf(&b, "  %-4s %-3s need=%d reserved=%s%s\n",
			t.Name(p), n.State(), n.Need(), strings.Repeat("●", n.Reserved()), extra)
	}
	return b.String()
}

func channelGlyphs(c channel.Ref) string {
	var b strings.Builder
	for _, m := range c.Snapshot() {
		b.WriteString(tokenGlyph(m.Kind))
	}
	return b.String()
}
