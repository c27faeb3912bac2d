package kofl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// docFiles are the documents that name code. Every backticked token in them
// that has the shape of a name must name something that exists.
var docFiles = []string{"README.md", "docs/ARCHITECTURE.md", "internal/campaign/README.md"}

func TestDocsNameWhatExists(t *testing.T) {
	start := time.Now()
	ix, err := loadDocIndex()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		resolved, unresolved := ix.check(filepath.Dir(doc), src)
		for _, u := range unresolved {
			t.Errorf("%s:%s", doc, u)
		}
		t.Logf("%s: %d distinct names resolved", doc, len(resolved))
		total += len(resolved)
	}
	t.Logf("%d names resolved in %v", total, time.Since(start).Round(time.Millisecond))
}

// TestDocResolver holds the resolver to what it must reject, accept and
// leave alone, one doc fragment at a time.
func TestDocResolver(t *testing.T) {
	ix, err := loadDocIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		doc        string
		resolved   int
		unresolved bool
	}{
		{"the kernel calls `sim.NoSuchThing`", 0, true},
		{"the id-indexed `Sim.Nodes` table", 0, true},
		{"`TestGone` pins it", 0, true},
		{"run it with `-no-such-flag`", 0, true},
		{"the benchmark's `campaign.no_such_metric`", 0, true},
		{"up to `smallCap = 31` members", 0, true},
		{"read off `tree.ChannelOffset(id)`", 0, true},
		{"the budget `Escalation.MaxSeeds`", 0, true},
		{"the per-process index's `NextProc`", 0, true},
		{"the removed `kofl_sim_stabilizations_total`", 0, true},
		{"`internal/sim/no_such_file.go`", 0, true},
		{"the simulator's `Options.Obs`", 0, true},
		{"the removed `Options.Journal`", 0, true},
		{"`TestLayoutGuard` pins both headers", 0, true},
		{"`sim.TestLayoutGuard` pins the header", 0, true},
		{"a 10µs `time.Sleep` or a yield (`runtime.Gosched`)", 2, false},
		{"the tree's `Tree.ChannelOffset`", 1, false},
		{"`sim.Options.Obs`, `kofl.Tree.ChannelOffset`, `channel.TestLayoutGuard`", 3, false},
		{"`TestFigure2Deadlock/pusher/literal` holds erratum E1", 1, false},
		{"up to `smallCap = 32` members, rests of `restQuantum = time.Millisecond`", 2, false},
		{"`campaign.allocs_per_slot`, `-debug-addr`, `sim.App.WakeAt`, `*Cycle`", 4, false},
		{"`core.Config.LegitimatePopulation(res, prio, push, resetPending)`", 1, false},
		{"`kofl_runtime_demand_wakes_total` and the `kofl_serve_*` series", 2, false},
		{"`internal/sim/census.go` and `EscalationSpec.MaxSeeds`", 2, false},
		{"prose code such as `workers = 1`, JSON keys such as `faults.storm_periods`, the `drain` kind", 0, false},
		{"```\nsim.NoSuchThing `sim.NoSuchThing`\n```\n", 0, false},
	} {
		resolved, unresolved := ix.check(".", []byte(c.doc))
		if len(resolved) != c.resolved || (len(unresolved) > 0) != c.unresolved {
			t.Errorf("%q: resolved %d, unresolved %q; want %d resolved, unresolved %v", c.doc, len(resolved), unresolved, c.resolved, c.unresolved)
		}
	}
}

// check resolves every code span of a doc in dir. It returns the distinct
// names that resolved and a "line: `span`: reason" entry for each span that
// has the shape of a name and names nothing.
func (ix *docIndex) check(dir string, src []byte) (resolved map[string]bool, unresolved []string) {
	resolved = map[string]bool{}
	for _, s := range codeSpans(src) {
		checked, err := ix.resolve(dir, s.text)
		switch {
		case err != nil:
			unresolved = append(unresolved, fmt.Sprintf("%d: `%s`: %v", s.line, s.text, err))
		case checked:
			resolved[s.text] = true
		}
	}
	return resolved, unresolved
}

type codeSpan struct {
	text string
	line int
}

var spanRe = regexp.MustCompile("`+")

// codeSpans returns the inline code spans of a markdown document, outside
// fenced blocks, each with the line it starts on.
func codeSpans(src []byte) []codeSpan {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.SplitAfter(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			line = "\n"
		} else if fenced {
			line = "\n"
		}
		prose.WriteString(line)
	}
	text := prose.String()
	var spans []codeSpan
	ticks := spanRe.FindAllStringIndex(text, -1)
	for i := 0; i+1 < len(ticks); i++ {
		open := ticks[i]
		j := i + 1
		for j < len(ticks) && ticks[j][1]-ticks[j][0] != open[1]-open[0] {
			j++
		}
		if j == len(ticks) {
			continue
		}
		body := strings.TrimSpace(strings.ReplaceAll(text[open[1]:ticks[j][0]], "\n", " "))
		if body != "" {
			spans = append(spans, codeSpan{body, 1 + strings.Count(text[:open[0]], "\n")})
		}
		i = j
	}
	return spans
}

// scope holds the declarations of one package.
type scope struct {
	top     map[string]bool            // package-level names
	types   map[string]bool            // package-level type names
	members map[string]map[string]bool // type → its fields and methods
	embeds  map[string][]string        // type → its embedded types, pkg.Type when imported
	aliases map[string]string          // alias → the pkg.Type it names, also one of its embeds
	pkg     func(name string) *scope   // the module package of that name, for pkg.Type embeds
}

func newScope(pkg func(string) *scope) *scope {
	return &scope{map[string]bool{}, map[string]bool{}, map[string]map[string]bool{}, map[string][]string{}, map[string]string{}, pkg}
}

func (s *scope) member(typ, name string) {
	if s.members[typ] == nil {
		s.members[typ] = map[string]bool{}
	}
	s.members[typ][name] = true
}

// typeName is the name of a named type expression, through pointers,
// qualifiers and type arguments; "" for any other type.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

func (s *scope) addFile(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				s.top[d.Name.Name] = true
			} else if typ := typeName(d.Recv.List[0].Type); typ != "" {
				s.member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						s.top[n.Name] = true
					}
				case *ast.TypeSpec:
					s.top[sp.Name.Name] = true
					s.types[sp.Name.Name] = true
					s.addType(sp.Name.Name, sp.Type)
					if t := embedName(sp.Type); sp.Assign.IsValid() && strings.Contains(t, ".") {
						s.aliases[sp.Name.Name] = t
						s.embeds[sp.Name.Name] = append(s.embeds[sp.Name.Name], t)
					}
				}
			}
		}
	}
}

func (s *scope) addType(typ string, e ast.Expr) {
	var list *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		list = e.Fields
	case *ast.InterfaceType:
		list = e.Methods
	default:
		return
	}
	for _, f := range list.List {
		if len(f.Names) == 0 {
			if emb := typeName(f.Type); emb != "" {
				s.member(typ, emb)
				s.embeds[typ] = append(s.embeds[typ], embedName(f.Type))
			}
			continue
		}
		for _, n := range f.Names {
			s.member(typ, n.Name)
		}
	}
}

// embedName is the name of an embedded or aliased type: pkg.Type when it
// is imported, else its typeName.
func embedName(e ast.Expr) string {
	if st, ok := e.(*ast.StarExpr); ok {
		e = st.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			return x.Name + "." + sel.Sel.Name
		}
	}
	return typeName(e)
}

// has reports whether typ has the field or method name, directly or
// promoted from an embedded type, the module's imported ones included.
func (s *scope) has(typ, name string, depth int) bool {
	if s.members[typ][name] {
		return true
	}
	for _, emb := range s.embeds[typ] {
		in := s
		if pkg, t, ok := strings.Cut(emb, "."); ok {
			if in, emb = s.pkg(pkg), t; in == nil {
				continue
			}
		}
		if depth < 4 && in.has(emb, name, depth+1) {
			return true
		}
	}
	return false
}

// resolve reports whether path is a package-level Name or a Type.Member.
func (s *scope) resolve(path []string) bool {
	switch len(path) {
	case 1:
		return s.top[path[0]]
	case 2:
		return s.types[path[0]] && s.has(path[0], path[1], 0)
	}
	return false
}

// declares reports whether name is a package-level name or a member of
// some type.
func (s *scope) declares(name string) bool {
	if s.top[name] {
		return true
	}
	for _, members := range s.members {
		if members[name] {
			return true
		}
	}
	return false
}

// docIndex is what the docs may name: the module's declarations, tests,
// command flags, constants and benchmark metrics, and the standard library.
// A module package is known by its name, a command by its directory's.
type docIndex struct {
	pkgs    map[string]*scope   // module package → its declarations, tests included
	decls   map[string]*scope   // module package → its declarations outside tests
	tests   map[string][]string // Test, Fuzz, Benchmark or Example function → its packages
	flags   map[string]bool     // flags defined by the module's commands
	values  map[string][]string // constant or variable → its declared values
	strs    map[string]bool     // string literals outside tests
	metrics map[string]bool     // BENCHMARK.json metric names
	layers  map[string]bool     // the metric names' prefixes
	std     map[string]*scope   // standard-library scopes, loaded on demand
}

// flagFuncs are the flag package's definers: a command's flag is the first
// string literal among a call's first two arguments.
var flagFuncs = map[string]bool{
	"Bool": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
	"Func": true, "BoolFunc": true, "Var": true, "TextVar": true,
}

// loadDocIndex indexes the module in the current directory, its root.
func loadDocIndex() (*docIndex, error) {
	ix := &docIndex{
		pkgs: map[string]*scope{}, decls: map[string]*scope{}, tests: map[string][]string{},
		flags: map[string]bool{}, values: map[string][]string{}, strs: map[string]bool{},
		metrics: map[string]bool{}, layers: map[string]bool{}, std: map[string]*scope{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.addFile(fset, f, src, filepath.Dir(p), strings.HasSuffix(p, "_test.go"))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix, ix.loadMetrics("BENCHMARK.json")
}

func (ix *docIndex) addFile(fset *token.FileSet, f *ast.File, src []byte, dir string, test bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if pkg == "main" {
		pkg = filepath.Base(dir)
	}
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = newScope(func(name string) *scope { return ix.pkgs[name] })
		ix.decls[pkg] = newScope(func(name string) *scope { return ix.decls[name] })
	}
	ix.pkgs[pkg].addFile(f)
	if !test {
		ix.decls[pkg].addFile(f)
	}
	text := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if test && n.Recv == nil && testRe.MatchString(n.Name.Name) && !slices.Contains(ix.tests[n.Name.Name], pkg) {
				ix.tests[n.Name.Name] = append(ix.tests[n.Name.Name], pkg)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					ix.values[name.Name] = append(ix.values[name.Name], text(n.Values[i]))
				}
			}
		case *ast.BasicLit:
			if lit, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && !test {
				ix.strs[lit] = true
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if f.Name.Name != "main" || !ok || !flagFuncs[sel.Sel.Name] {
				break
			}
			for _, a := range n.Args[:min(2, len(n.Args))] {
				if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					ix.flags[name] = true
					break
				}
			}
		}
		return true
	})
}

func (ix *docIndex) loadMetrics(file string) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &b); err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		ix.metrics[m.Name] = true
		if layer, _, ok := strings.Cut(m.Name, "."); ok {
			ix.layers[layer] = true
		}
	}
	return nil
}

// series reports whether the module's string literals spell the exposition
// series name, or with a trailing * a series name beginning with it: one
// literal, or a prefix literal ending in _ followed by a second literal.
func (ix *docIndex) series(name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	spells := func(lit, want string) bool {
		return lit == want || wild && strings.HasPrefix(lit, want)
	}
	for lit := range ix.strs {
		if spells(lit, prefix) {
			return true
		}
		if rest, ok := strings.CutPrefix(prefix, lit); ok && strings.HasSuffix(lit, "_") {
			for second := range ix.strs {
				if spells(second, rest) {
					return true
				}
			}
		}
	}
	return false
}

// stdScope parses the declarations of the standard-library package name
// that mention any of want: the files that declare those names or their
// methods. It returns nil when no standard-library package has that name.
func (ix *docIndex) stdScope(name string, want []string) *scope {
	key := name + "." + strings.Join(want, ".")
	if s, ok := ix.std[key]; ok {
		return s
	}
	var s *scope
	if bp, err := build.Default.ImportDir(filepath.Join(build.Default.GOROOT, "src", name), 0); err == nil {
		s = newScope(func(string) *scope { return nil })
		fset := token.NewFileSet()
		for _, file := range bp.GoFiles {
			src, err := os.ReadFile(filepath.Join(bp.Dir, file))
			if err != nil || !bytes.Contains(src, []byte(want[0])) {
				continue
			}
			if f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution); err == nil {
				s.addFile(f)
			}
		}
	}
	ix.std[key] = s
	return s
}

var (
	assignRe = regexp.MustCompile(`^([A-Za-z_]\w*) = (.+)$`)
	callRe   = regexp.MustCompile(`^(\[\]|\*)*([\w.]+)(\(.*\)|\[\w*\])?$`)
	testRe   = regexp.MustCompile(`^(?:([a-z]\w*)\.)?((?:Test|Fuzz|Benchmark|Example)(?:[A-Z0-9_]\w*)?)(/\S*)?$`)
	flagRe   = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)$`)
	metricRe = regexp.MustCompile(`^([a-z]+)\.[a-z0-9]+_[a-z0-9_]+$`)
	seriesRe = regexp.MustCompile(`^kofl_[a-z0-9_]+\*?$`)
	nameRe   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	fileRe   = regexp.MustCompile(`^[\w.-]+(/[\w.-]+)*/?$`)
	upperRe  = regexp.MustCompile(`[A-Z]`)
)

// resolve reports whether tok, a code span of a doc in dir, has the shape of
// a name (checked), and if so whether it names nothing (err). The shapes:
//
//	Name = value         a constant or variable declared with that value
//	TestX, TestX/sub     a Test, Fuzz, Benchmark or Example function that
//	                     one package declares; pkg.TestX where more do
//	-flag                a flag one of the module's commands defines
//	layer.metric_name    a metric BENCHMARK.json declares
//	kofl_series[_*]      an exposition series some string literal names,
//	                     alone or after a prefix literal ending in _
//	pkg.Name[.Member]    a declaration in a module package, else in the
//	                     standard library (runtime.Gosched)
//	Type.Member          a field or method, interface methods included,
//	                     of a type declared outside tests in one package
//	                     only; pkg.Type.Member where more declare it
//	Name, camelName      a name declared outside tests
//	dir/file.go          a file or directory, from the doc's or the root
//
// A leading * or [] and a trailing argument list or index are dropped:
// `Census()`, `*Cycle`, `slotOf[p]`. All-lowercase words, prose code such
// as `workers = 1` and JSON keys such as `faults.storm_periods` are not
// names and are not checked.
func (ix *docIndex) resolve(dir, tok string) (checked bool, err error) {
	if m := assignRe.FindStringSubmatch(tok); m != nil {
		if !upperRe.MatchString(m[1]) {
			return false, nil
		}
		vals, ok := ix.values[m[1]]
		if !ok {
			return true, fmt.Errorf("no constant or variable %s", m[1])
		}
		for _, v := range vals {
			if v == m[2] {
				return true, nil
			}
		}
		return true, fmt.Errorf("%s is declared as %s", m[1], strings.Join(vals, ", "))
	}
	if m := testRe.FindStringSubmatch(tok); m != nil {
		pkgs := ix.tests[m[2]]
		switch {
		case m[1] != "" && !slices.Contains(pkgs, m[1]):
			return true, fmt.Errorf("package %s declares no test function %s", m[1], m[2])
		case len(pkgs) == 0:
			return true, fmt.Errorf("no test function %s", m[2])
		case m[1] == "" && len(pkgs) > 1:
			return true, fmt.Errorf("%s is declared in %s: qualify it", m[2], strings.Join(sorted(pkgs), ", "))
		}
		return true, nil
	}
	if m := flagRe.FindStringSubmatch(tok); m != nil {
		if !ix.flags[m[1]] {
			return true, fmt.Errorf("no command defines the flag -%s", m[1])
		}
		return true, nil
	}
	if m := metricRe.FindStringSubmatch(tok); m != nil && ix.layers[m[1]] {
		if !ix.metrics[tok] {
			return true, fmt.Errorf("BENCHMARK.json declares no metric %s", tok)
		}
		return true, nil
	}
	if seriesRe.MatchString(tok) {
		if !ix.series(tok) {
			return true, fmt.Errorf("no string literal names the series %s", tok)
		}
		return true, nil
	}
	if strings.ContainsRune(tok, '/') || strings.HasSuffix(tok, ".go") || strings.HasSuffix(tok, ".md") || strings.HasSuffix(tok, ".json") {
		if !fileRe.MatchString(tok) {
			return false, nil
		}
		for _, base := range []string{dir, "."} {
			if _, err := os.Stat(filepath.Join(base, tok)); err == nil {
				return true, nil
			}
		}
		return true, fmt.Errorf("no such file")
	}
	if m := callRe.FindStringSubmatch(tok); m != nil {
		tok = m[2]
	}
	if !nameRe.MatchString(tok) {
		return false, nil
	}
	path := strings.Split(tok, ".")
	if len(path) == 1 {
		if !upperRe.MatchString(tok) {
			return false, nil
		}
		for _, s := range ix.decls {
			if s.declares(tok) {
				return true, nil
			}
		}
		return true, fmt.Errorf("no declaration outside tests is named %s", tok)
	}
	if upperRe.MatchString(path[0][:1]) {
		// An alias of another module package's type is that type, not a
		// second one.
		var owners []string
		for pkg, s := range ix.decls {
			target, _, _ := strings.Cut(s.aliases[path[0]], ".")
			if s.types[path[0]] && ix.decls[target] == nil {
				owners = append(owners, pkg)
			}
		}
		switch {
		case len(owners) == 0:
			return true, fmt.Errorf("no module type %s outside tests", path[0])
		case len(owners) > 1:
			return true, fmt.Errorf("%s is declared in %s: qualify it", path[0], strings.Join(sorted(owners), ", "))
		case !ix.decls[owners[0]].resolve(path):
			return true, fmt.Errorf("%s.%s has no member %s", owners[0], path[0], strings.Join(path[1:], "."))
		}
		return true, nil
	}
	mod := ix.pkgs[path[0]]
	if mod != nil && mod.resolve(path[1:]) {
		return true, nil
	}
	std := ix.stdScope(path[0], path[1:])
	if std != nil && std.resolve(path[1:]) {
		return true, nil
	}
	if mod == nil && std == nil {
		return false, nil
	}
	return true, fmt.Errorf("package %s declares no %s", path[0], strings.Join(path[1:], "."))
}

func sorted(s []string) []string {
	slices.Sort(s)
	return s
}
