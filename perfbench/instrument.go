package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// target names one function of the ctdvs sources to wrap in a span. recv is
// the receiver's type name without the pointer ("" for a plain function).
// observe, when set, runs after the span ends and may read the parameters
// and the results, which the instrumenter names __r0, __r1, ...
type target struct {
	dir, recv, fn string
	span          string
	observe       string
	custom        string // replaces the span wrapper entirely
}

// targets are the public entry points of every layer, plus the unexported
// key derivations and store read that carry the exp.key and pipeline.get
// spans. A target missing from the sources is reported, not fatal, so the
// benchmark survives later refactors; the fidelity checks catch a missing
// span that matters.
var targets = []target{
	{dir: "internal/sim", recv: "Machine", fn: "Record", span: "sim.record"},
	{dir: "internal/sim", recv: "Machine", fn: "RunDVS", span: "sim.validate"},
	{dir: "internal/sim", recv: "Machine", fn: "RunGoverned", span: "sim.governor"},
	{dir: "internal/profile", fn: "FromRecording", span: "profile.replay"},
	{dir: "internal/profile", fn: "EncodeBinary", span: "schedfile.encode"},
	{dir: "internal/profile", fn: "DecodeBinary", span: "schedfile.decode"},
	{dir: "internal/core", fn: "Prepare", span: "core.prepare"},
	{dir: "internal/core", recv: "Prepared", fn: "Filter", span: "core.filter"},
	{dir: "internal/core", recv: "Prepared", fn: "Formulate", span: "core.formulate"},
	{dir: "internal/core", recv: "Formulation", fn: "SolveContext", span: "milp.solve",
		observe: `if __r0 != nil {
		__bt.Add("core.independent_edges", int64(__r0.IndependentEdges))
		if s := __r0.Solver; s != nil {
			__bt.Add("milp.nodes", int64(s.Nodes))
			__bt.Add("milp.analytic_prunes", int64(s.AnalyticPrunes))
			__bt.Add("lp.pivots", int64(s.LPPivots))
			__bt.Add("lp.warm_solves", int64(s.WarmSolves))
			__bt.Add("lp.cold_solves", int64(s.ColdSolves))
		}
	}`},
	{dir: "internal/pipeline", recv: "Store", fn: "Get", span: "pipeline.get",
		observe: `if __r2 { __bt.Add("pipeline.get.bytes", int64(len(__r0))) }`},
	{dir: "internal/pipeline", recv: "Store", fn: "getAppend", span: "pipeline.get",
		observe: `if __r2 { __bt.Add("pipeline.get.bytes", int64(len(__r0))) }`},
	{dir: "internal/pipeline", recv: "Store", fn: "Put", span: "pipeline.put",
		observe: `__bt.Add("pipeline.put.bytes", int64(len(data)))`},
	{dir: "internal/schedfile", fn: "EncodeRecordingBinary", span: "schedfile.encode"},
	{dir: "internal/schedfile", fn: "DecodeRecordingBinary", span: "schedfile.decode"},
	{dir: "internal/exp", fn: "encodeSolveBinary", span: "schedfile.encode"},
	{dir: "internal/exp", fn: "decodeSolveBinary", span: "schedfile.decode"},
	{dir: "internal/exp", fn: "encodeGraphSolveBinary", span: "schedfile.encode"},
	{dir: "internal/exp", fn: "decodeGraphSolveBinary", span: "schedfile.decode"},
	{dir: "internal/exp", recv: "Config", fn: "recordKey", span: "exp.key"},
	{dir: "internal/exp", recv: "Config", fn: "profileKey", span: "exp.key"},
	{dir: "internal/exp", fn: "solveKey", span: "exp.key"},
	{dir: "internal/exp", fn: "validateKey", span: "exp.key"},
	{dir: "internal/exp", fn: "graphSolveKey", span: "exp.key"},
	{dir: "internal/exp", fn: "graphSimKey", span: "exp.key"},
	{dir: "internal/exp", recv: "Config", fn: "fingerprint", span: "exp.key"},
	{dir: "internal/exp", recv: "Config", fn: "RunScheduleConfigCtx", span: "exp.validate"},
	{dir: "internal/paths", fn: "New", span: "paths.filter"},
	{dir: "internal/paths", fn: "Hot", span: "paths.filter"},
	{dir: "internal/paths", recv: "Numbering", fn: "Decode", span: "paths.filter"},
	{dir: "internal/analytic", fn: "OptimizeContinuous", span: "analytic.continuous"},
	{dir: "internal/analytic", fn: "OptimizeDiscrete", span: "analytic.discrete"},
	{dir: "internal/analytic", fn: "OptimizeContinuousExact", span: "analytic.exact"},
	{dir: "internal/volt", recv: "Scaling", fn: "Voltage", span: "volt.voltage"},
	{dir: "internal/serve", recv: "Server", fn: "Handler",
		custom: `defer func() { __r0 = __bt.WrapHandler(__r0) }()`},
}

const btImport = `ctdvs/internal/benchtrace`

// instrumentTree copies the module at src (go.mod and the non-test Go files
// of cmd/ and internal/) to dst, wraps every target in a span, and adds the
// recorder package and the traced driver. It returns the targets it could
// not find.
func instrumentTree(src, dst, benchDir string) ([]string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return nil, err
	}
	if err := copyFile(filepath.Join(src, "go.mod"), filepath.Join(dst, "go.mod")); err != nil {
		return nil, err
	}
	for _, top := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(src, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(src, p)
			if err != nil {
				return err
			}
			return copyFile(p, filepath.Join(dst, rel))
		})
		if err != nil {
			return nil, err
		}
	}
	found := map[int]bool{}
	byDir := map[string][]int{}
	for i, t := range targets {
		byDir[t.dir] = append(byDir[t.dir], i)
	}
	for dir, idx := range byDir {
		files, _ := filepath.Glob(filepath.Join(dst, dir, "*.go"))
		for _, path := range files {
			if err := rewriteFile(path, idx, found); err != nil {
				return nil, err
			}
		}
	}
	if err := copyFile(filepath.Join(benchDir, "benchtrace", "benchtrace.go"),
		filepath.Join(dst, "internal", "benchtrace", "benchtrace.go")); err != nil {
		return nil, err
	}
	if err := copyFile(filepath.Join(benchDir, "tracedrv", "main.go"),
		filepath.Join(dst, "cmd", "benchtrace-drv", "main.go")); err != nil {
		return nil, err
	}
	var missing []string
	for i, t := range targets {
		if !found[i] {
			missing = append(missing, t.dir+"."+strings.TrimPrefix(t.recv+"."+t.fn, "."))
		}
	}
	return missing, nil
}

type edit struct {
	off  int
	end  int // replaced range [off, end); end == off inserts
	text string
}

// rewriteFile wraps the targets declared in path. Result lists become named
// (__r0, __r1, ...) so the deferred observer can read them; that changes no
// caller and no behaviour.
func rewriteFile(path string, idx []int, found map[int]bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	var edits []edit
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		for _, i := range idx {
			t := targets[i]
			if fd.Name.Name != t.fn || recvName(fd) != t.recv {
				continue
			}
			found[i] = true
			if res := fd.Type.Results; res != nil && len(res.List) > 0 && len(res.List[0].Names) == 0 {
				var parts []string
				for k, field := range res.List {
					parts = append(parts, fmt.Sprintf("__r%d %s", k, src[off(field.Type.Pos()):off(field.Type.End())]))
				}
				start, end := off(res.Pos()), off(res.End())
				edits = append(edits, edit{off: start, end: end, text: "(" + strings.Join(parts, ", ") + ")"})
			}
			body := t.custom
			if body == "" {
				body = fmt.Sprintf("defer func(__s __bt.Span) { __s.End(); %s }(__bt.Begin(%q))", t.observe, t.span)
			}
			at := off(fd.Body.Lbrace) + 1
			edits = append(edits, edit{off: at, end: at, text: "\n\t" + body + "\n"})
		}
	}
	if len(edits) == 0 {
		return nil
	}
	at := off(f.Name.End())
	edits = append(edits, edit{off: at, end: at, text: "\n\nimport __bt \"" + btImport + "\"\n"})
	sort.Slice(edits, func(a, b int) bool { return edits[a].off > edits[b].off })
	var out bytes.Buffer
	out.Write(src)
	buf := out.Bytes()
	for _, e := range edits {
		buf = append(buf[:e.off:e.off], append([]byte(e.text), buf[e.end:]...)...)
	}
	return os.WriteFile(path, buf, 0o644)
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}
