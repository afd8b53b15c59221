package txir

import (
	"fmt"
	"strings"
	"testing"

	"qracn/internal/store"
)

// transferProgram is the paper's running Bank example (Fig. 1): read two
// branches and two accounts, withdraw/deposit on each.
func transferProgram() *Program {
	p := NewProgram("transfer")
	p.ReadP("branch", "b1", "srcBranch")
	p.ReadP("branch", "b2", "dstBranch")
	p.Local(func(e *Env) error {
		e.SetInt64("nb1", e.GetInt64("b1")-e.GetInt64("amt"))
		return nil
	}, []Var{"b1", "amt"}, []Var{"nb1"})
	p.WriteP("branch", "nb1", "srcBranch")
	return p
}

func TestBuilderIndices(t *testing.T) {
	p := transferProgram()
	for i, s := range p.Stmts {
		if s.Index != i {
			t.Fatalf("stmt %d has Index %d", i, s.Index)
		}
	}
	if len(p.Stmts) != 4 {
		t.Fatalf("len = %d", len(p.Stmts))
	}
}

func TestValidateOK(t *testing.T) {
	p := transferProgram()
	// "amt" is used before definition — define it via a Local preamble.
	p2 := NewProgram("transfer2")
	p2.Local(func(e *Env) error {
		e.SetInt64("amt", int64(e.ParamInt("amount")))
		return nil
	}, nil, []Var{"amt"})
	for _, s := range p.Stmts {
		p2.add(&Stmt{Kind: s.Kind, Class: s.Class, RefKey: s.RefKey, Ref: s.Ref,
			Dst: s.Dst, Src: s.Src, Fn: s.Fn, Reads: s.Reads, Writes: s.Writes, RefVars: s.RefVars})
	}
	if err := p2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateUndefinedVar(t *testing.T) {
	p := transferProgram() // uses "amt" which is never defined
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), `"amt"`) {
		t.Fatalf("err = %v, want undefined-variable error for amt", err)
	}
}

func TestValidateRejectsRedefinition(t *testing.T) {
	read := func(p *Program, dst Var) {
		p.Read("o", "o", func(*Env) store.ObjectID { return "o" }, dst)
	}
	noop := func(*Env) error { return nil }
	for _, tc := range []struct {
		name  string
		build func(p *Program)
		stmt  int
		v     Var
	}{
		{"plain redefinition", func(p *Program) {
			read(p, "x")
			p.Local(noop, nil, []Var{"y"})
			p.Local(noop, []Var{"x"}, []Var{"y"})
		}, 2, "y"},
		{"read into a defined variable", func(p *Program) {
			read(p, "x")
			read(p, "x")
		}, 1, "x"},
		{"self-update", func(p *Program) {
			read(p, "x")
			p.Local(noop, []Var{"x"}, []Var{"x"}) // x = x + 1
		}, 1, "x"},
	} {
		p := NewProgram("redef")
		tc.build(p)
		err := p.Validate()
		want := fmt.Sprintf("redef: statement %d redefines variable %q", tc.stmt, tc.v)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
}

func TestValidateMissingRef(t *testing.T) {
	p := NewProgram("bad")
	p.add(&Stmt{Kind: KindRead, Class: "c", Dst: "x"})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no Ref") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateMissingClass(t *testing.T) {
	p := NewProgram("bad")
	p.add(&Stmt{Kind: KindRead, Ref: func(*Env) store.ObjectID { return "x" }, Dst: "x"})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no Class") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateMissingFn(t *testing.T) {
	p := NewProgram("bad")
	p.add(&Stmt{Kind: KindLocal, Writes: []Var{"x"}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no Fn") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateUnnamedDef(t *testing.T) {
	p := NewProgram("bad")
	p.add(&Stmt{Kind: KindLocal, Fn: func(*Env) error { return nil }, Writes: []Var{""}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unnamed") {
		t.Fatalf("err = %v", err)
	}
}

func TestRefFromParams(t *testing.T) {
	p := NewProgram("p")
	s := p.ReadP("district", "d", "w", "d")
	env := NewEnv(map[string]any{"w": 3, "d": 7})
	if got := s.Ref(env); got != "district/3/7" {
		t.Fatalf("Ref = %q", got)
	}
	if s.ObjKey() != "district(w,d)" {
		t.Fatalf("ObjKey = %q", s.ObjKey())
	}
}

func TestUsesDefsVars(t *testing.T) {
	p := NewProgram("p")
	r := p.Read("c", "k", func(e *Env) store.ObjectID { return store.ID("c", e.GetInt64("k")) }, "dst", "k")
	w := p.Write("c", "k", func(e *Env) store.ObjectID { return "c/1" }, "src", "k")
	l := p.Local(func(*Env) error { return nil }, []Var{"a"}, []Var{"b"})

	if got := r.UsesVars(); len(got) != 1 || got[0] != "k" {
		t.Fatalf("read uses = %v", got)
	}
	if got := r.DefsVars(); len(got) != 1 || got[0] != "dst" {
		t.Fatalf("read defs = %v", got)
	}
	if got := w.UsesVars(); len(got) != 2 || got[0] != "k" || got[1] != "src" {
		t.Fatalf("write uses = %v", got)
	}
	if got := w.DefsVars(); got != nil {
		t.Fatalf("write defs = %v", got)
	}
	if got := l.UsesVars(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("local uses = %v", got)
	}
	if got := l.DefsVars(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("local defs = %v", got)
	}
}

func TestLocalObjKeyEmpty(t *testing.T) {
	p := NewProgram("p")
	l := p.Local(func(*Env) error { return nil }, nil, []Var{"x"})
	if l.ObjKey() != "" {
		t.Fatalf("local ObjKey = %q", l.ObjKey())
	}
}

func TestStringRendering(t *testing.T) {
	p := transferProgram()
	out := p.String()
	for _, want := range []string{"program transfer", "read branch(srcBranch)", "write branch(srcBranch)", "local"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	if KindRead.String() != "read" || KindWrite.String() != "write" || KindLocal.String() != "local" {
		t.Fatal("Kind.String broken")
	}
}

func TestEnvAccessors(t *testing.T) {
	e := NewEnv(map[string]any{"n": 5, "n64": int64(6), "s": "hi"})
	if e.ParamInt("n") != 5 || e.ParamInt("n64") != 6 || e.ParamStr("s") != "hi" {
		t.Fatal("param accessors broken")
	}
	if e.Param("missing") != nil {
		t.Fatal("missing param should be nil")
	}
	e.SetInt64("v", 9)
	if e.GetInt64("v") != 9 {
		t.Fatal("var accessors broken")
	}
	if e.Get("unset") != nil || e.GetInt64("unset") != 0 {
		t.Fatal("unset var should be nil/0")
	}
	e.Set("raw", store.String("x"))
	if store.AsString(e.Get("raw")) != "x" {
		t.Fatal("Set/Get broken")
	}
}

func TestEnvPanicsOnBadParams(t *testing.T) {
	e := NewEnv(map[string]any{"s": "str"})
	for _, fn := range []func(){
		func() { e.ParamInt("missing") },
		func() { e.ParamInt("s") },
		func() { e.ParamStr("missing") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	e2 := NewEnv(map[string]any{"n": 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for mistyped string param")
			}
		}()
		e2.ParamStr("n")
	}()
}

func TestNilParamsEnv(t *testing.T) {
	e := NewEnv(nil)
	if e.Param("x") != nil {
		t.Fatal("nil-params env should return nil")
	}
}
