package mlnclean_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// The README is the manual of the system as it is. These tests keep it so:
// every package-qualified name, metric series, path and heading it (and
// API.md) cites must exist in the tree, and the README stays small enough to
// read. Per-change measurement stories belong in git history and CHANGES.md.

// readmeLimit is the README's size budget in bytes.
const readmeLimit = 40960

func TestReadmeSize(t *testing.T) {
	if n := len(readDoc(t, "README.md")); n > readmeLimit {
		t.Errorf("README.md is %d bytes, over the %d-byte budget", n, readmeLimit)
	}
}

// TestDocNamesResolve: a backticked `pkg.Name` or `pkg.Type.Member` in
// README.md or API.md, with pkg a directory under internal/, names a
// top-level declaration of that package and, if given, a method or struct
// field of it; a backticked `Type.Member` whose Type is a type of some
// internal package names a member of such a type; a backticked
// `TestX`, `BenchmarkX` or `FuzzX` names a function of some _test.go file.
// A `layer.metric` the repository benchmark reports (BENCHMARK.json) is a
// metric, not a declaration.
func TestDocNamesResolve(t *testing.T) {
	tr := loadTree(t)
	benchMetrics := benchmarkMetrics(t)
	for _, doc := range []string{"README.md", "API.md"} {
		prose := withoutFences(readDoc(t, doc))
		for _, span := range codeSpans(prose) {
			if testFuncRE.MatchString(span) {
				if !tr.testFuncs[span] {
					t.Errorf("%s: `%s` names no test, benchmark or fuzz target", doc, span)
				}
				continue
			}
			for _, m := range qualifiedRE.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				decls, ok := tr.pkgs[pkg]
				if !ok || fileExts[name] || benchMetrics[pkg+"."+name] {
					continue
				}
				if !decls.top[name] {
					t.Errorf("%s: `%s` names no declaration %s in internal/%s", doc, span, name, pkg)
					continue
				}
				if member != "" && !decls.resolves(name, member) {
					t.Errorf("%s: `%s` names no member %s of %s.%s", doc, span, member, pkg, name)
				}
			}
			for _, m := range typeMemberRE.FindAllStringSubmatch(span, -1) {
				typ, member := m[1], m[2]
				if fileExts[member] || !tr.isType(typ) {
					continue
				}
				if !tr.anyResolves(typ, member) {
					t.Errorf("%s: `%s` names no member %s of any internal type %s", doc, span, member, typ)
				}
			}
		}
	}
}

// TestReadmeCitationsResolve: every `README › Heading` (and
// `README › Heading › Subheading`) cited from a Go comment or string in the
// module names a README heading. A citation ends at punctuation or at the end
// of its text, so `README › Deviations from the paper)` does not resolve to
// a heading named Deviations.
func TestReadmeCitationsResolve(t *testing.T) {
	tr := loadTree(t)
	_, heads := readmeParts(t)
	for _, c := range tr.citations {
		rest := c.text
		for {
			h := longestHeading(heads, rest)
			if h == "" {
				t.Errorf("%s: README › %q names no README heading", c.pos, clip(rest, 48))
				break
			}
			next, ok := strings.CutPrefix(strings.TrimSpace(rest[len(h):]), "›")
			if !ok {
				break
			}
			rest = strings.TrimSpace(next)
		}
	}
	if len(tr.citations) == 0 {
		t.Error("found no README › citation in the module: the scan is broken")
	}
}

// TestReadmeSeriesRegistered: a backticked `mlnclean_*` or `mlnserve_*`
// series in README.md is registered by a non-test Go file; a trailing `_`
// or a `*` matches as a pattern, and a histogram's _bucket/_sum/_count
// series count as the histogram.
func TestReadmeSeriesRegistered(t *testing.T) {
	tr := loadTree(t)
	prose, _ := readmeParts(t)
	cited := 0
	for _, span := range codeSpans(prose) {
		for _, name := range seriesRE.FindAllString(span, -1) {
			cited++
			if !tr.seriesMatch(name) {
				t.Errorf("README.md: `%s` cites series %s, which no non-test Go file registers", span, name)
			}
		}
	}
	if cited == 0 {
		t.Error("README.md cites no metric series: the scan is broken")
	}
}

// TestRegisteredSeriesRead is TestReadmeSeriesRegistered reversed: every
// series a non-test Go file registers is cited in a ### recipe under README ›
// Observability, or read by a string literal in benchmark/*.go (the family
// table alone does not count). A histogram's _bucket/_sum/_count series count
// as the histogram; a pattern such as `mlnclean_core_delta_*` reads nothing.
func TestRegisteredSeriesRead(t *testing.T) {
	tr := loadTree(t)
	read := map[string]bool{}
	for _, span := range codeSpans(observabilityRecipes(t)) {
		for _, name := range seriesRE.FindAllString(span, -1) {
			read[name] = true
		}
	}
	if len(read) == 0 {
		t.Fatal("README › Observability recipes cite no series: the scan is broken")
	}
	for _, lit := range benchmarkStrings(t) {
		read[lit] = true
	}
	for _, s := range slices.Sorted(maps.Keys(tr.series)) {
		if !read[s] && !read[s+"_bucket"] && !read[s+"_sum"] && !read[s+"_count"] {
			t.Errorf("series %s is registered, but no README › Observability recipe cites it and no benchmark/*.go string reads it", s)
		}
	}
}

// observabilityRecipes returns the prose of the ### sections under README ›
// Observability.
func observabilityRecipes(t *testing.T) string {
	t.Helper()
	prose, _ := readmeParts(t)
	_, section, ok := strings.Cut(prose, "\n## Observability\n")
	if !ok {
		t.Fatal("README.md has no ## Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, recipes, ok := strings.Cut(section, "\n### ")
	if !ok {
		t.Fatal("README › Observability has no ### recipe")
	}
	return recipes
}

// benchmarkStrings returns every string literal of benchmark/*.go.
func benchmarkStrings(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark/*.go file (%v)", err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, p := range files {
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// TestReadmePathsExist: every ./cmd/…, ./examples/… and internal/… path in
// README.md, prose and code blocks alike, exists.
func TestReadmePathsExist(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, m := range pathRE.FindAllStringSubmatch(readme, -1) {
		p := strings.TrimPrefix(strings.TrimRight(m[1], ".,:;/"), "./")
		if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
			t.Errorf("README.md cites %s, which does not exist", m[1])
		}
	}
}

var (
	fenceRE      = regexp.MustCompile("(?m)^\\s*```")
	spanRE       = regexp.MustCompile("`([^`]+)`")
	testFuncRE   = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z]\w*$`)
	qualifiedRE  = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	typeMemberRE = regexp.MustCompile(`(?:^|[^\w./-])([A-Z]\w*)\.([A-Za-z_]\w*)`)
	seriesRE     = regexp.MustCompile(`mln(?:clean|serve)_[a-z0-9_*]*`)
	pathRE       = regexp.MustCompile(`(?:^|[^\w./-])((?:\./)?(?:cmd|examples|internal)/[\w./-]*)`)
	citationRE   = regexp.MustCompile(`README\s*›\s*`)
)

// fileExts are suffixes that make `index.go` or `rules.txt` a file name,
// not a qualified identifier.
var fileExts = map[string]bool{"go": true, "md": true, "txt": true, "csv": true, "json": true, "log": true, "snap": true, "sh": true, "yml": true}

// benchmarkMetrics returns the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &decl); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		out[m.Name] = true
	}
	return out
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readmeParts returns README.md without its fenced code blocks, and its
// headings (fenced lines that start with # are shell comments, not
// headings).
func readmeParts(t *testing.T) (prose string, heads []string) {
	t.Helper()
	prose = withoutFences(readDoc(t, "README.md"))
	for _, line := range strings.Split(prose, "\n") {
		if strings.HasPrefix(line, "#") {
			heads = append(heads, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return prose, heads
}

// withoutFences drops a markdown document's fenced code blocks.
func withoutFences(doc string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if fenceRE.MatchString(line) {
			in = !in
		} else if !in {
			b.WriteString(line)
		}
	}
	return b.String()
}

func codeSpans(prose string) []string {
	var out []string
	for _, m := range spanRE.FindAllStringSubmatch(prose, -1) {
		out = append(out, strings.Join(strings.Fields(m[1]), " "))
	}
	return out
}

// longestHeading returns the longest heading that text starts with and that
// the end of text or punctuation follows, or "".
func longestHeading(heads []string, text string) string {
	best := ""
	for _, h := range heads {
		if len(h) <= len(best) || !strings.HasPrefix(text, h) {
			continue
		}
		if rest := strings.TrimLeft(text[len(h):], " "); rest != "" && !unicode.IsPunct([]rune(rest)[0]) {
			continue
		}
		best = h
	}
	return best
}

func clip(s string, n int) string {
	if r := []rune(s); len(r) > n {
		return string(r[:n]) + "…"
	}
	return s
}

// pkgDecls is what one internal package declares outside its tests.
type pkgDecls struct {
	top     map[string]bool
	types   map[string]bool
	members map[string]map[string]bool // type → methods and fields
	embeds  map[string][]string        // type → embedded types of the package
}

// resolves reports whether member is a method or field of typ, through
// embedding; a top-level name that is not a type (a var such as
// bench.Default) resolves any member of the package's types.
func (p *pkgDecls) resolves(typ, member string) bool {
	if !p.types[typ] {
		for _, ms := range p.members {
			if ms[member] {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(t string) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if p.members[t][member] {
			return true
		}
		for _, e := range p.embeds[t] {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

// tree is what the docs tests read from the module's Go files.
type tree struct {
	pkgs      map[string]*pkgDecls // internal/<name> → declarations
	testFuncs map[string]bool      // Test/Benchmark/Fuzz functions
	series    map[string]bool      // registered metric names
	citations []citation
}

type citation struct {
	pos  string
	text string // what follows "README › ", whitespace collapsed
}

func (tr *tree) isType(name string) bool {
	for _, p := range tr.pkgs {
		if p.types[name] {
			return true
		}
	}
	return false
}

func (tr *tree) anyResolves(typ, member string) bool {
	for _, p := range tr.pkgs {
		if p.types[typ] && p.resolves(typ, member) {
			return true
		}
	}
	return false
}

func (tr *tree) seriesMatch(name string) bool {
	pattern := name
	if strings.HasSuffix(name, "_") {
		pattern += "*"
	}
	for s := range tr.series {
		for _, form := range []string{s, s + "_bucket", s + "_sum", s + "_count"} {
			if ok, _ := path.Match(pattern, form); ok {
				return true
			}
		}
	}
	return false
}

var parsedTree = sync.OnceValues(parseTree)

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr, err := parsedTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// parseTree parses every Go file of the module, leaving out testdata and
// nested modules (the benchmark has a README of its own).
func parseTree() (*tree, error) {
	tr := &tree{pkgs: map[string]*pkgDecls{}, testFuncs: map[string]bool{}, series: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(p, "_test.go")
		if p != "docs_test.go" { // whose comments spell out the citation syntax
			tr.collectCitations(fset, f)
		}
		if isTest {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testFuncRE.MatchString(fd.Name.Name) {
					tr.testFuncs[fd.Name.Name] = true
				}
			}
			return nil
		}
		tr.collectSeries(f)
		dir := filepath.ToSlash(filepath.Dir(p))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && !strings.Contains(pkg, "/") {
			tr.decls(pkg).add(f)
		}
		return nil
	})
	return tr, err
}

func (tr *tree) decls(pkg string) *pkgDecls {
	p := tr.pkgs[pkg]
	if p == nil {
		p = &pkgDecls{top: map[string]bool{}, types: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
		tr.pkgs[pkg] = p
	}
	return p
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// add records f's top-level names, its types' fields and interface methods,
// and its methods.
func (p *pkgDecls) add(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
			} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
				p.member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.top[s.Name.Name] = true
					p.types[s.Name.Name] = true
					p.typeMembers(s.Name.Name, s.Type)
				}
			}
		}
	}
}

func (p *pkgDecls) typeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch e := expr.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if emb := recvType(f.Type); emb != "" {
				p.member(typ, emb)
				p.embeds[typ] = append(p.embeds[typ], emb)
			}
			continue
		}
		for _, n := range f.Names {
			p.member(typ, n.Name)
		}
	}
}

// recvType is the type name of a receiver or embedded field: T, *T, T[K]
// or pkg.T (the last yields T).
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// collectCitations records every README › citation in f's comments and
// string literals.
func (tr *tree) collectCitations(fset *token.FileSet, f *ast.File) {
	add := func(pos token.Pos, text string) {
		text = strings.Join(strings.Fields(text), " ")
		for _, loc := range citationRE.FindAllStringIndex(text, -1) {
			tr.citations = append(tr.citations, citation{pos: fset.Position(pos).String(), text: text[loc[1]:]})
		}
	}
	for _, cg := range f.Comments {
		add(cg.Pos(), cg.Text())
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				add(lit.Pos(), s)
			}
		}
		return true
	})
}

// collectSeries records the name of every metric f registers: the string
// literal first argument of a Counter or Histogram call.
func (tr *tree) collectSeries(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Counter", "Histogram":
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					tr.series[s] = true
				}
			}
		}
		return true
	})
}

// TestDocsTreeScan guards the scanners themselves: the packages, members,
// series and test functions the other docs tests resolve against are found,
// so none of them passes by finding nothing.
func TestDocsTreeScan(t *testing.T) {
	tr := loadTree(t)
	for _, want := range []string{"core", "index", "server", "wal"} {
		if tr.pkgs[want] == nil {
			t.Errorf("internal/%s not scanned", want)
		}
	}
	if core := tr.pkgs["core"]; core == nil || !core.resolves("DeltaCleaner", "Load") || !core.resolves("Options", "Tau") {
		t.Error("core.DeltaCleaner.Load or core.Options.Tau does not resolve")
	}
	if !tr.series["mlnclean_core_stage_seconds"] || !tr.testFuncs["TestReadmeSize"] {
		t.Error("a registered series or a test function was not found")
	}
}
