package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"kofl/internal/channel"
	"kofl/internal/message"
	"kofl/internal/tree"
)

// TestSlotsAreRingOrder pins the two numberings: slots are DFS preorder —
// the order in which a token lap first reaches each process — and the
// identity where labels already are; every accessor still speaks ids; the
// channel iteration order fault injectors depend on is unchanged; and the
// incremental set, whose members carry table indices, enumerates exactly
// what the id-ordered scan finds, in both of its forms.
func TestSlotsAreRingOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tr       *tree.Tree
		identity bool
	}{
		{"prufer-257", tree.Prufer(257, rand.New(rand.NewSource(13))), false},
		{"caterpillar-6x2", tree.Caterpillar(6, 2), false},
		{"paper", tree.Paper(), false},
		{"chain-9", tree.Chain(9), true},
		{"star-9", tree.Star(9), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			s := MustNew(tr, testCfg(2, 3), Options{Seed: 1, TimeoutTicks: 1 << 40})

			// Preorder by recursion, and the first visits of the Euler tour:
			// the two must agree with each other and with the slots.
			var pre []int
			var walk func(p int)
			walk = func(p int) {
				pre = append(pre, p)
				for _, c := range tr.Children(p) {
					walk(c)
				}
			}
			walk(tr.Root())
			var tour []int
			seen := make([]bool, tr.N())
			for _, v := range tr.EulerTour() {
				if !seen[v.From] {
					seen[v.From] = true
					tour = append(tour, v.From)
				}
			}
			if !reflect.DeepEqual(pre, tour) {
				t.Fatalf("preorder %v is not the ring's first-visit order %v", pre, tour)
			}
			for slot, p := range pre {
				if got := int(s.actions.slotOf[p]); got != slot {
					t.Fatalf("process %d has slot %d, want %d (preorder %v)", p, got, slot, pre)
				}
				if tc.identity && p != slot {
					t.Fatalf("process %d at slot %d: the mapping should be the identity", p, slot)
				}
				if got := int(s.procs[slot].id); got != p {
					t.Fatalf("slot %d holds process %d, want %d", slot, got, p)
				}
			}

			// Every accessor answers in ids.
			for p := 0; p < tr.N(); p++ {
				n := s.Node(p)
				if n.ID() != p || n.Degree() != tr.Degree(p) || n.IsRoot() != tr.IsRoot(p) {
					t.Fatalf("Node(%d) is %d of degree %d (root %v), want degree %d (root %v)",
						p, n.ID(), n.Degree(), n.IsRoot(), tr.Degree(p), tr.IsRoot(p))
				}
				if got := s.Handle(p).ID(); got != p {
					t.Fatalf("Handle(%d).ID() = %d", p, got)
				}
				for ch := 0; ch < tr.Degree(p); ch++ {
					in, out := s.In(p, ch).Ends(), s.Out(p, ch).Ends()
					if in.To != p || in.ToCh != ch {
						t.Fatalf("In(%d, %d) = %v", p, ch, in)
					}
					if out.From != p || out.FromCh != ch {
						t.Fatalf("Out(%d, %d) = %v", p, ch, out)
					}
					if q := tr.Neighbor(p, ch); out.To != q || in.From != q {
						t.Fatalf("channel %d of %d does not lead to %d: in %v, out %v", ch, p, q, in, out)
					}
				}
			}

			// Channels visits in sender-lexicographic order, every channel once.
			var prev *[2]int
			count := 0
			s.Channels(func(c channel.Ref) {
				cur := [2]int{c.Ends().From, c.Ends().FromCh}
				if prev != nil && (cur[0] < prev[0] || cur[0] == prev[0] && cur[1] <= prev[1]) {
					t.Fatalf("Channels visited %v after %v", cur, *prev)
				}
				prev = &cur
				count++
			})
			if count != tr.RingLen() {
				t.Fatalf("Channels visited %d channels, want %d", count, tr.RingLen())
			}

			// The set against the scan: applications and single messages in
			// the small form, then a message in every channel — the dense form
			// on the two trees with more than smallCap channels — then steps
			// down again.
			apps := make([]*toggleApp, tr.N())
			for p := range apps {
				apps[p] = &toggleApp{on: p%3 == 1, wake: NoWake}
				s.AttachApp(p, apps[p])
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 5; i++ {
				p := rng.Intn(tr.N())
				s.Seed(p, rng.Intn(tr.Degree(p)), message.NewRes())
			}
			checkAgainstScan(t, s)
			checkAt(t, s.actions)
			for p := 0; p < tr.N(); p++ {
				for ch := 0; ch < tr.Degree(p); ch++ {
					s.Seed(p, ch, message.Message{}) // no protocol kind: dropped on delivery
				}
			}
			if big := s.actions.Len() > smallCap; s.actions.dense != big {
				t.Fatalf("%d enabled actions, dense = %v", s.actions.Len(), s.actions.dense)
			}
			checkAgainstScan(t, s)
			checkAt(t, s.actions)
			for i := 0; i < 4*tr.RingLen(); i++ {
				s.Step()
				checkAgainstScan(t, s)
			}
			checkAt(t, s.actions)
		})
	}
}

// checkAt asserts At agrees with AppendAll position by position.
func checkAt(t *testing.T, as *ActionSet) {
	t.Helper()
	for i, a := range as.AppendAll(nil) {
		if got := as.At(i); got != a {
			t.Fatalf("At(%d) = %v, AppendAll[%d] = %v (dense %v)", i, got, i, a, as.dense)
		}
	}
}

// TestProcIsOneLine pins the process line: the application, the wake time,
// the id and the first table index fill exactly 32 bytes, two lines to a
// cache line, so a delivery touches at most one process-side line besides
// its protocol slot (and the next line's first index, for the degree). Its
// one pointer-bearing field is the application interface: what every
// process shares (the simulator, the slot store) is not repeated per line. If
// it grows, the bytes/process ceiling (TestBytesPerProcessCeiling) goes with
// it.
func TestProcIsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(proc{}); got != 32 {
		t.Fatalf("proc is %d bytes, want 32", got)
	}
	typ := reflect.TypeOf(proc{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int32, reflect.Int64:
		case reflect.Interface:
			if f.Name != "app" {
				t.Errorf("proc.%s is a second interface besides the application", f.Name)
			}
		default:
			t.Errorf("proc.%s is a %s; the line holds the application interface and integers only", f.Name, f.Type)
		}
	}
}
