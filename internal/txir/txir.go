// Package txir defines the transaction intermediate representation ACN's
// static analysis consumes. The paper analyses Java bytecode with Soot; this
// reproduction expresses a transaction's business logic as a straight-line
// program of Read / Write / Local statements with declared variable uses and
// definitions, which carries exactly the information Soot's UnitGraph
// provides to ACN: where the remote object accesses are, how values flow
// between statements, and which statements are independent.
//
// Every variable is assigned once: exactly one statement defines it, and
// every use follows that definition in program order (Program.Validate).
// A rollback to any point therefore re-runs a variable's one definition
// before any re-run statement reads it, so no rollback saves or restores a
// variable, and the only data dependencies are read-after-write ones.
package txir

import (
	"fmt"
	"strings"

	"qracn/internal/store"
)

// Var names a transaction-local (private) variable.
type Var string

// Kind discriminates statement types.
type Kind int

// Statement kinds.
const (
	// KindRead fetches a shared object into a variable. The first read of
	// an object is a remote interaction (it defines a UnitBlock); re-reads
	// are served from the transaction's private read-set.
	KindRead Kind = iota
	// KindWrite buffers a variable's value as the new state of a shared
	// object.
	KindWrite
	// KindLocal is a pure local computation over declared variables.
	KindLocal
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	default:
		return "local"
	}
}

// RefFunc resolves the concrete object a statement touches for one
// transaction invocation (object identity may depend on Env parameters and
// variables).
type RefFunc func(*Env) store.ObjectID

// LocalFunc is a local computation. It must be a pure function of its
// declared read variables (and Env parameters), and it may set only its
// declared, assigned-once definitions: a partial rollback re-executes it over
// whatever the Env holds, so any hidden state — or a variable it both reads
// and sets — would corrupt the partial-rollback semantics.
type LocalFunc func(*Env) error

// Stmt is one statement of a transaction program.
type Stmt struct {
	// Index is the statement's position in the program.
	Index int
	Kind  Kind

	// Class labels the object class a Read/Write touches (e.g. "district").
	// It is used for diagnostics and contention reporting.
	Class string
	// RefKey identifies the reference expression; two object statements
	// with equal Class and RefKey are assumed to touch the same object
	// (conservative may-alias rule), different keys are assumed disjoint.
	RefKey string
	// Ref computes the concrete object ID at run time.
	Ref RefFunc
	// RefVars lists the variables Ref consults (data dependencies of the
	// access itself).
	RefVars []Var

	// Dst receives the value on a Read.
	Dst Var
	// Src supplies the value on a Write.
	Src Var

	// Fn is the computation of a Local statement.
	Fn LocalFunc
	// Reads/Writes declare the variables a Local consumes and defines.
	Reads  []Var
	Writes []Var
}

// UsesVars returns every variable the statement consumes.
func (s *Stmt) UsesVars() []Var {
	switch s.Kind {
	case KindRead:
		return s.RefVars
	case KindWrite:
		out := make([]Var, 0, len(s.RefVars)+1)
		out = append(out, s.RefVars...)
		out = append(out, s.Src)
		return out
	default:
		return s.Reads
	}
}

// DefsVars returns every variable the statement defines.
func (s *Stmt) DefsVars() []Var {
	switch s.Kind {
	case KindRead:
		return []Var{s.Dst}
	case KindWrite:
		return nil
	default:
		return s.Writes
	}
}

// ObjKey returns the may-alias key for object statements ("" for locals).
func (s *Stmt) ObjKey() string {
	if s.Kind == KindLocal {
		return ""
	}
	return s.Class + "(" + s.RefKey + ")"
}

func (s *Stmt) String() string {
	switch s.Kind {
	case KindRead:
		return fmt.Sprintf("[%d] %s = read %s", s.Index, s.Dst, s.ObjKey())
	case KindWrite:
		return fmt.Sprintf("[%d] write %s <- %s", s.Index, s.ObjKey(), s.Src)
	default:
		return fmt.Sprintf("[%d] local defs=%v uses=%v", s.Index, s.Writes, s.Reads)
	}
}

// Program is a straight-line transaction.
type Program struct {
	Name  string
	Stmts []*Stmt
}

// NewProgram starts building a program.
func NewProgram(name string) *Program {
	return &Program{Name: name}
}

func (p *Program) add(s *Stmt) *Stmt {
	s.Index = len(p.Stmts)
	p.Stmts = append(p.Stmts, s)
	return s
}

// Read appends a read of the object identified by ref into dst. refKey must
// identify the reference expression (see Stmt.RefKey); refVars list the
// variables ref consults.
func (p *Program) Read(class, refKey string, ref RefFunc, dst Var, refVars ...Var) *Stmt {
	return p.add(&Stmt{Kind: KindRead, Class: class, RefKey: refKey, Ref: ref, Dst: dst, RefVars: refVars})
}

// ReadP appends a read whose object ID is derived from Env parameters:
// store.ID(class, params...). The RefKey is derived from the parameter
// names, so two statements reading class with the same parameters alias.
func (p *Program) ReadP(class string, dst Var, params ...string) *Stmt {
	return p.Read(class, strings.Join(params, ","), refFromParams(class, params), dst)
}

// Write appends a write of src's value to the object identified by ref.
func (p *Program) Write(class, refKey string, ref RefFunc, src Var, refVars ...Var) *Stmt {
	return p.add(&Stmt{Kind: KindWrite, Class: class, RefKey: refKey, Ref: ref, Src: src, RefVars: refVars})
}

// WriteP appends a write whose object ID is derived from Env parameters.
func (p *Program) WriteP(class string, src Var, params ...string) *Stmt {
	return p.Write(class, strings.Join(params, ","), refFromParams(class, params), src)
}

// Local appends a local computation with declared uses and defs.
func (p *Program) Local(fn LocalFunc, uses []Var, defs []Var) *Stmt {
	return p.add(&Stmt{Kind: KindLocal, Fn: fn, Reads: uses, Writes: defs})
}

func refFromParams(class string, params []string) RefFunc {
	return func(e *Env) store.ObjectID {
		var buf [64]byte
		b := append(buf[:0], class...)
		for _, p := range params {
			b = store.AppendKey(append(b, '/'), e.Param(p))
		}
		return store.ObjectID(b)
	}
}

// Validate checks the variable discipline: every variable a statement uses
// must be defined by an earlier statement, every variable is defined by
// exactly one statement (so `x = x + 1` is rejected: write `x1 = x + 1`),
// Local statements must have a function, object statements must have a Ref,
// and defined variables must be named. It returns the first violation found.
func (p *Program) Validate() error {
	defined := make(map[Var]bool)
	for _, s := range p.Stmts {
		switch s.Kind {
		case KindRead, KindWrite:
			if s.Ref == nil {
				return fmt.Errorf("txir: %s: statement %d has no Ref", p.Name, s.Index)
			}
			if s.Class == "" {
				return fmt.Errorf("txir: %s: statement %d has no Class", p.Name, s.Index)
			}
		case KindLocal:
			if s.Fn == nil {
				return fmt.Errorf("txir: %s: statement %d has no Fn", p.Name, s.Index)
			}
		}
		for _, v := range s.UsesVars() {
			if !defined[v] {
				return fmt.Errorf("txir: %s: statement %d uses undefined variable %q", p.Name, s.Index, v)
			}
		}
		for _, v := range s.DefsVars() {
			if v == "" {
				return fmt.Errorf("txir: %s: statement %d defines an unnamed variable", p.Name, s.Index)
			}
			if defined[v] {
				return fmt.Errorf("txir: %s: statement %d redefines variable %q (each variable is assigned once)", p.Name, s.Index, v)
			}
			defined[v] = true
		}
	}
	return nil
}

// String renders the program for diagnostics.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s:\n", p.Name)
	for _, s := range p.Stmts {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}
