package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// forbidden lists, per imported package, the entry points the ROADMAP
// plans to delete. The benchmark must outlive those deletions, so it may
// not name any of them; shard and summary-store counters are read from
// /v1/stats by name instead.
var forbidden = map[string][]string{
	"repro/internal/service":  {"Router", "NewRouter", "NewRouterHandler", "NewLRUSummaryStore", "SummaryKey", "ProcFingerprints", "ExportSeeds"},
	"repro/internal/analysis": {"ExportSeeds"},
	"repro/internal/path":     {"DefaultSpace", "New", "Parse"},
	"repro/internal/matrix":   {"DefaultSpace", "New"},
}

// TestDurableAPISurface fails if any Go file of the benchmark references
// a symbol the ROADMAP plans to delete, sets or reads Options.Seeds, or
// builds an analysis.Options without an explicit Space (the nil-Space
// fallback of analysis.Analyze).
func TestDurableAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{} // local name -> path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "Seeds" {
					t.Errorf("%s: references Options.Seeds", fset.Position(n.Pos()))
				}
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				for _, sym := range forbidden[imports[id.Name]] {
					if n.Sel.Name == sym {
						t.Errorf("%s: references %s.%s", fset.Position(n.Pos()), imports[id.Name], sym)
					}
				}
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || imports[id.Name] != "repro/internal/analysis" || sel.Sel.Name != "Options" {
					return true
				}
				hasSpace := false
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						switch kv.Key.(*ast.Ident).Name {
						case "Space":
							hasSpace = true
						case "Seeds":
							t.Errorf("%s: sets Options.Seeds", fset.Position(kv.Pos()))
						}
					}
				}
				if !hasSpace && !fingerprintOnly(f, n) {
					t.Errorf("%s: analysis.Options without an explicit Space", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// fingerprintOnly reports whether an Options literal is passed straight
// to service.ProgramFingerprint, which reads the options but runs no
// analysis.
func fingerprintOnly(f *ast.File, lit *ast.CompositeLit) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ProgramFingerprint" {
			for _, a := range call.Args {
				if a == lit {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metrics the program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, e2eMetrics}, {"per_layer", doc.PerLayer, layerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s %s", c.kind, i, m, d.name, d.unit, d.better)
			}
		}
	}
}

// TestTracedRunSmoke runs a short traced pass and checks that it passes
// its own output checks and reports every per-layer metric.
func TestTracedRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	res, err := run("edit-stream", 1, 0.3, true, filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result: %+v", res)
	}
	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("missing per-layer metric %s", m.name)
		}
	}
}
