package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Registration enforces the plugin lifecycle contract for internal/
// packages: a package that defines a CompressorPlugin, Metric or IOPlugin
// implementation must register it via the matching core.Register* entry
// point, from init (so plugins exist before any lookup), exactly once per
// name, and — when both sides are statically visible — under a name equal to
// the implementation's Prefix(). Unregistered plugins are dead code that
// silently vanishes from SupportedCompressors(); late or duplicate
// registration panics at runtime where a linter can catch it at review time.
var Registration = &Analyzer{
	Name: "registration",
	Doc:  "plugin implementations must be registered from init, once, under their prefix",
	Run:  runRegistration,
}

// implSignatures lists the method names whose joint presence on a type marks
// it as a plugin implementation of the given kind. Detection is structural
// (method sets, not interface satisfaction) so it works without cross-package
// type information and on fixture packages.
var implSignatures = map[string][]string{
	kindCompressor: {"Prefix", "CompressImpl", "DecompressImpl"},
	kindMetric:     {"Prefix", "BeginCompress", "EndCompress", "Results"},
	kindIO:         {"Prefix", "Read", "Write", "Configuration"},
}

// registerEntry maps kinds back to entry-point names for messages.
var registerEntry = map[string]string{
	kindCompressor: "RegisterCompressor",
	kindMetric:     "RegisterMetric",
	kindIO:         "RegisterIO",
}

func runRegistration(pass *Pass) {
	if !strings.Contains("/"+pass.Pkg.Path+"/", "/internal/") {
		return // the contract covers the internal/ plugin tree
	}
	if declaresPluginContract(pass.Pkg) {
		return // the package defining the interfaces is not a plugin package
	}

	methods := pass.Facts.Methods[pass.Pkg.Path]
	prefixLit := make(map[string]string) // type -> literal Prefix() value
	typePos := make(map[string]token.Pos)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						typePos[ts.Name.Name] = ts.Pos()
					}
				}
			case *ast.FuncDecl:
				recv := receiverTypeName(d)
				if recv == "" {
					continue
				}
				if _, ok := typePos[recv]; !ok {
					typePos[recv] = d.Pos()
				}
				if d.Name.Name == "Prefix" {
					if lit, ok := singleReturnString(d); ok {
						prefixLit[recv] = lit
					}
				}
			}
		}
	}

	var sites []RegSite
	for _, site := range pass.Facts.Sites {
		if site.PkgPath == pass.Pkg.Path {
			sites = append(sites, site)
		}
	}
	kindsRegistered := make(map[string]bool)
	for _, site := range sites {
		kindsRegistered[site.Kind] = true
	}

	// (a) implementations of a kind the package never registers.
	for typ, mset := range methods {
		for kind, required := range implSignatures {
			if kindsRegistered[kind] || !hasAll(mset, required) {
				continue
			}
			pass.Reportf(typePos[typ],
				"%s implements a %s plugin but the package never calls core.%s; it is unreachable through the registry",
				typ, kind, registerEntry[kind])
		}
	}

	seen := make(map[string]token.Pos) // kind+name -> first position
	for _, site := range sites {
		// (b) registration outside init.
		if site.Func != "init" {
			where := site.Func
			if where == "" {
				where = "a package-level initializer"
			}
			pass.Reportf(site.Pos,
				"%s must be called from init, not %s: plugins must exist before the first registry lookup",
				registerEntry[site.Kind], where)
		}
		if site.Name == "" {
			continue
		}
		// (c) duplicate name within the package.
		key := site.Kind + "\x00" + site.Name
		if _, dup := seen[key]; dup {
			pass.Reportf(site.Pos,
				"duplicate %s registration of %q in this package; core.%s panics on duplicates at startup",
				site.Kind, site.Name, registerEntry[site.Kind])
		} else {
			seen[key] = site.Pos
		}
		// (d) duplicate name across packages (reported once, in the path-wise
		// later package, so a module-wide run flags it exactly one time).
		for _, other := range pass.Facts.Sites {
			if other.Kind == site.Kind && other.Name == site.Name &&
				other.PkgPath < site.PkgPath {
				pass.Reportf(site.Pos,
					"%s plugin name %q is already registered by %s; duplicate names panic at startup",
					site.Kind, site.Name, other.PkgPath)
				break
			}
		}
		// (e) registered name vs statically known Prefix().
		if lit, ok := prefixLit[site.FactoryType]; ok && lit != site.Name {
			pass.Reportf(site.Pos,
				"plugin registered as %q but %s.Prefix() returns %q; options addressed by prefix will not reach it",
				site.Name, site.FactoryType, lit)
		}
	}
}

// declaresPluginContract reports whether the package declares the plugin
// interfaces themselves (internal/core), which exempts it from registration
// requirements: core's MetricsGroup is composed explicitly, never looked up.
func declaresPluginContract(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, isIface := ts.Type.(*ast.InterfaceType); !isIface {
					continue
				}
				switch ts.Name.Name {
				case "CompressorPlugin", "Metric", "IOPlugin":
					return true
				}
			}
		}
	}
	return false
}

// receiverTypeName returns the base type name of a method receiver.
func receiverTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) != 1 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// singleReturnString matches method bodies of the form
// `return "literal"` so registered names can be checked against Prefix().
func singleReturnString(d *ast.FuncDecl) (string, bool) {
	if d.Body == nil || len(d.Body.List) != 1 {
		return "", false
	}
	ret, ok := d.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "", false
	}
	return stringLit(ret.Results[0])
}

func hasAll(methods set[string], names []string) bool {
	for _, n := range names {
		if !methods[n] {
			return false
		}
	}
	return true
}
