package unitgraph

import (
	"strings"
	"testing"

	"qracn/internal/store"
	"qracn/internal/txir"
)

func readStmt(p *txir.Program, class string, dst txir.Var) *txir.Stmt {
	return p.Read(class, class, func(*txir.Env) store.ObjectID { return store.ID(class) }, dst)
}

func noop(*txir.Env) error { return nil }

// paperExample builds §V-C1's example transaction:
//
//	{Read(A), Read(B), Read(C), Read(D), var=A+B, var=var/2, Read(E), var2=E+B}
//
// with var=var/2 written assign-once as half=var/2 (txir.Program.Validate).
func paperExample() *txir.Program {
	p := txir.NewProgram("paper-example")
	p.Read("A", "A", func(*txir.Env) store.ObjectID { return "A" }, "a") // anchor 0
	p.Read("B", "B", func(*txir.Env) store.ObjectID { return "B" }, "b") // anchor 1
	p.Read("C", "C", func(*txir.Env) store.ObjectID { return "C" }, "c") // anchor 2
	p.Read("D", "D", func(*txir.Env) store.ObjectID { return "D" }, "d") // anchor 3
	p.Local(noop, []txir.Var{"a", "b"}, []txir.Var{"var"})               // stmt 4: var = A+B
	p.Local(noop, []txir.Var{"var"}, []txir.Var{"half"})                 // stmt 5: half = var/2
	p.Read("E", "E", func(*txir.Env) store.ObjectID { return "E" }, "e") // anchor 4
	p.Local(noop, []txir.Var{"e", "b"}, []txir.Var{"var2"})              // stmt 7: var2 = E+B
	return p
}

func TestPaperExampleAttachment(t *testing.T) {
	a, err := Analyze(paperExample())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAnchors != 5 {
		t.Fatalf("NumAnchors = %d, want 5", a.NumAnchors)
	}
	// var = A+B attaches to Read(B)'s UnitBlock (the latest access to an
	// object it manages).
	if got := a.Stmts[4].StaticHost; got != 1 {
		t.Fatalf("var=A+B hosted at %d, want 1 (Read(B))", got)
	}
	// half = var/2 has no direct shared-object access; it follows the chain
	// through var=A+B into the same UnitBlock.
	if got := a.Stmts[5].StaticHost; got != 1 {
		t.Fatalf("half=var/2 hosted at %d, want 1", got)
	}
	// var2 = E+B attaches to Read(E)'s UnitBlock.
	if got := a.Stmts[7].StaticHost; got != 4 {
		t.Fatalf("var2=E+B hosted at %d, want 4 (Read(E))", got)
	}
	// Eligible hosts of var=A+B are the UnitBlocks of A and B.
	if got := a.Stmts[4].DepAnchors; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("DepAnchors(var=A+B) = %v, want [0 1]", got)
	}
	// half=var/2 inherits A and B transitively.
	if got := a.Stmts[5].DepAnchors; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("DepAnchors(half=var/2) = %v, want [0 1]", got)
	}
	// var2=E+B depends on blocks of B and E.
	if got := a.Stmts[7].DepAnchors; len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("DepAnchors(var2) = %v, want [1 4]", got)
	}
}

func TestWriteAfterReadAttaches(t *testing.T) {
	p := txir.NewProgram("rw")
	readStmt(p, "acct", "v") // anchor 0
	p.Local(noop, []txir.Var{"v"}, []txir.Var{"nv"})
	p.Write("acct", "acct", func(*txir.Env) store.ObjectID { return store.ID("acct") }, "nv")
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAnchors != 1 {
		t.Fatalf("NumAnchors = %d, want 1 (write is not a first access)", a.NumAnchors)
	}
	if a.Stmts[2].IsAnchor || a.Stmts[2].StaticHost != 0 {
		t.Fatalf("write should attach to the read's UnitBlock: %+v", a.Stmts[2])
	}
}

func TestWriteFirstIsAnchor(t *testing.T) {
	p := txir.NewProgram("insert")
	readStmt(p, "seq", "n") // anchor 0
	p.Local(noop, []txir.Var{"n"}, []txir.Var{"row"})
	p.Write("order", "n", func(e *txir.Env) store.ObjectID {
		return store.ID("order", e.GetInt64("n"))
	}, "row", "n") // anchor 1 (fresh object)
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAnchors != 2 {
		t.Fatalf("NumAnchors = %d, want 2", a.NumAnchors)
	}
	if !a.Stmts[2].IsAnchor {
		t.Fatal("first write to a fresh object must anchor a UnitBlock")
	}
	// The insert depends on the sequence read (RefVars + Src flow).
	if got := a.Stmts[2].DepAnchors; len(got) != 1 || got[0] != 0 {
		t.Fatalf("DepAnchors = %v, want [0]", got)
	}
}

func TestRereadAttachesToOwningBlock(t *testing.T) {
	p := txir.NewProgram("reread")
	readStmt(p, "x", "v1")                                                          // anchor 0
	readStmt(p, "y", "v2")                                                          // anchor 1
	p.Read("x", "x", func(*txir.Env) store.ObjectID { return store.ID("x") }, "v3") // re-read of x
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAnchors != 2 {
		t.Fatalf("NumAnchors = %d, want 2", a.NumAnchors)
	}
	info := a.Stmts[2]
	if info.IsAnchor {
		t.Fatal("re-read must not anchor a new UnitBlock")
	}
	if len(info.DepAnchors) != 1 || info.DepAnchors[0] != 0 {
		t.Fatalf("re-read DepAnchors = %v, want [0]", info.DepAnchors)
	}
}

func TestOrderEdgesVarAndObject(t *testing.T) {
	p := txir.NewProgram("edges")
	readStmt(p, "o", "v")                                                           // 0: anchor
	p.Local(noop, []txir.Var{"v"}, []txir.Var{"w"})                                 // 1: RAW on v
	p.Write("o", "o", func(*txir.Env) store.ObjectID { return store.ID("o") }, "w") // 2: object write
	p.Read("o", "o", func(*txir.Env) store.ObjectID { return store.ID("o") }, "v2") // 3: must see the buffered write
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]bool{
		{0, 1}: true, // v defined by 0, read by 1
		{1, 2}: true, // w defined by 1, read by 2
		{0, 2}: true, // object ordering: read before write
		{2, 3}: true, // re-read must follow the write
	}
	got := map[[2]int]bool{}
	for _, e := range a.OrderEdges {
		got[e] = true
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("missing order edge %v in %v", e, a.OrderEdges)
		}
	}
}

func TestNoAnchorsRejected(t *testing.T) {
	p := txir.NewProgram("pure-local")
	p.Local(noop, nil, []txir.Var{"x"})
	if _, err := Analyze(p); err == nil || !strings.Contains(err.Error(), "no remote object access") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidProgramRejected(t *testing.T) {
	p := txir.NewProgram("invalid")
	p.Local(noop, []txir.Var{"never-defined"}, []txir.Var{"x"})
	if _, err := Analyze(p); err == nil {
		t.Fatal("Analyze accepted an invalid program")
	}
}

func TestParamOnlyLocalsFloat(t *testing.T) {
	p := txir.NewProgram("preamble")
	p.Local(noop, nil, []txir.Var{"amt"})             // pure parameter setup
	p.Local(noop, []txir.Var{"amt"}, []txir.Var{"k"}) // chain over a float
	readStmt(p, "o", "v")
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Stmts[0].Floating || !a.Stmts[1].Floating {
		t.Fatalf("parameter computations should float: %+v %+v", a.Stmts[0], a.Stmts[1])
	}
	if got := a.FloatingStmts(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("FloatingStmts = %v", got)
	}
	// Floating statements impose no block-level constraints.
	if edges := a.BlockEdges(a.StaticHosts()); len(edges) != 0 {
		t.Fatalf("floating statements leaked block edges: %v", edges)
	}
}

func TestBlockMembersAndEdges(t *testing.T) {
	a, err := Analyze(paperExample())
	if err != nil {
		t.Fatal(err)
	}
	hosts := a.StaticHosts()
	members := a.BlockMembers(hosts)
	if got := members[1]; len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("block 1 members = %v, want [1 4 5]", got)
	}
	edges := a.BlockEdges(hosts)
	// var=A+B lives in block 1 and reads block 0's output: edge 0 -> 1.
	if !edges[0][1] {
		t.Fatalf("missing block edge 0->1: %v", edges)
	}
	// var2 in block 4 reads b from block 1: edge 1 -> 4.
	if !edges[1][4] {
		t.Fatalf("missing block edge 1->4: %v", edges)
	}
}

func TestAcyclic(t *testing.T) {
	edges := map[int]map[int]bool{0: {1: true}, 1: {2: true}}
	if !Acyclic(3, edges) {
		t.Fatal("acyclic graph reported cyclic")
	}
	edges[2] = map[int]bool{0: true}
	if Acyclic(3, edges) {
		t.Fatal("cycle not detected")
	}
	if !Acyclic(0, nil) {
		t.Fatal("empty graph should be acyclic")
	}
}

func TestDotRendering(t *testing.T) {
	a, err := Analyze(paperExample())
	if err != nil {
		t.Fatal(err)
	}
	dot := a.Dot()
	for _, want := range []string{"digraph", "cluster_0", "UnitBlock 4", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("Dot() missing %q:\n%s", want, dot)
		}
	}
}
