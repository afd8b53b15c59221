package flags

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/server"
)

// parse registers every registrar on one fresh flag set and parses args.
func parse(t *testing.T, args ...string) (dtm.Config, server.Config) {
	t.Helper()
	var (
		d dtm.Config
		s server.Config
	)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Client(fs, &d)
	Node(fs, &s)
	Forensics(fs, &d.ForensicsRing, &d.NoForensics)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestParseSetsExactlyTheNamedFields(t *testing.T) {
	d, s := parse(t, "-retry-budget", "7", "-hedge-after", "5ms", "-no-forensics")
	want := dtm.Config{RetryBudget: 7, HedgeAfter: 5 * time.Millisecond, NoForensics: true, TraceSample: 1}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("dtm.Config = %+v, want %+v", d, want)
	}
	if !reflect.DeepEqual(s, server.Config{}) {
		t.Errorf("server.Config = %+v, want zero", s)
	}
}

func TestNoArgumentsLeaveTheDefaults(t *testing.T) {
	d, s := parse(t)
	if want := (dtm.Config{TraceSample: 1}); !reflect.DeepEqual(d, want) {
		t.Errorf("dtm.Config = %+v, want %+v", d, want)
	}
	if !reflect.DeepEqual(s, server.Config{}) {
		t.Errorf("server.Config = %+v, want zero", s)
	}
}
