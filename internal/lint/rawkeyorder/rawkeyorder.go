// Package rawkeyorder checks that typed jobs relying on the raw-byte
// shuffle sort use order-preserving key codecs.
//
// The shuffle sorts intermediate records by comparing encoded key
// bytes. A typed job whose MapKey codec does not preserve the key
// type's order in its encoding (e.g. decimal strings: "10" < "9")
// silently groups and orders reduce input wrongly. The contract: any
// TypedJob with a Reducer or Combiner must use a MapKey codec
// implementing mapreduce.RawComparer — the codec vouches for its
// order (recordio.Int64, Uint64, Float64, RawString, ...), and its
// RawCompare is the job's only key order. Map-only jobs never sort
// and are exempt.
package rawkeyorder

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/engineapi"
)

// Analyzer checks TypedJob literals for order-preserving MapKey codecs.
var Analyzer = &analysis.Analyzer{
	Name: "rawkeyorder",
	Doc: "a TypedJob with a Reducer or Combiner sorts by encoded key bytes; its MapKey " +
		"codec must implement mapreduce.RawComparer",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			checkJobLit(pass, lit)
			return true
		})
	}
	return nil
}

func checkJobLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	named := engineapi.NamedFrom(pass.TypesInfo.TypeOf(lit), "TypedJob", engineapi.MapreducePath)
	if named == nil {
		return
	}
	fields := map[string]ast.Expr{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			// A positional TypedJob literal would defeat field matching;
			// nobody writes 15-field positional literals, so ignore.
			return
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			fields[id.Name] = kv.Value
		}
	}
	if !fieldSet(pass, fields, "Reducer") && !fieldSet(pass, fields, "Combiner") {
		return // map-only: the engine never sorts these keys
	}
	mk, ok := fields["MapKey"]
	if !ok {
		pass.Reportf(lit.Pos(),
			"TypedJob has a reducer but no MapKey codec: the shuffle sort has no key order; "+
				"set an order-preserving MapKey codec")
		return
	}
	mkType := pass.TypesInfo.TypeOf(mk)
	if mkType == nil {
		return
	}
	iface := engineapi.RawComparerIface(named.Obj().Pkg())
	if iface == nil {
		return
	}
	if types.Implements(mkType, iface) || types.Implements(types.NewPointer(mkType), iface) {
		return
	}
	pass.Reportf(mk.Pos(),
		"MapKey codec %s does not implement mapreduce.RawComparer: the shuffle sorts raw "+
			"encoded bytes, which need not follow the key type's order; use an "+
			"order-preserving codec (recordio.Int64, Uint64, Float64, RawString, UserTime)",
		types.TypeString(mkType, types.RelativeTo(pass.Pkg)))
}

// fieldSet reports whether the field is present with a non-nil value.
func fieldSet(pass *analysis.Pass, fields map[string]ast.Expr, name string) bool {
	e, ok := fields[name]
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if ok && tv.IsNil() {
		return false
	}
	return true
}
