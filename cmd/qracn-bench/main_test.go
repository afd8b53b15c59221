package main

import (
	"reflect"
	"testing"

	"qracn/internal/harness"
)

func TestParseModes(t *testing.T) {
	got, err := parseModes("all")
	if err != nil || !reflect.DeepEqual(got, harness.AllModes) {
		t.Fatalf("all: %v %v", got, err)
	}
	got, err = parseModes("dtm,cn,acn,cp")
	if err != nil {
		t.Fatal(err)
	}
	want := []harness.Mode{harness.ModeQRDTM, harness.ModeQRCN, harness.ModeQRACN, harness.ModeQRCP}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if _, err := parseModes("dtm,bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("2,4,16")
	if err != nil || !reflect.DeepEqual(got, []int{2, 4, 16}) {
		t.Fatalf("got %v %v", got, err)
	}
	for _, bad := range []string{"0", "a", "2,-1", "99999999999999999999"} {
		if _, err := parseInts(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestSplitComma(t *testing.T) {
	if got := splitComma("a,b,,c"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("got %v", got)
	}
	if got := splitComma(""); got != nil {
		t.Fatalf("got %v", got)
	}
}
