package main

import (
	"bytes"
	_ "embed"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this run")

//go:embed testdata/stdout.golden
var golden []byte

// TestStdoutGolden pins what the example prints, byte for byte. After an
// intended change, rerun with -update and review the diff.
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("testdata/stdout.golden", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("output differs from testdata/stdout.golden (regenerate with -update if intended):\n%s", out.Bytes())
	}
}
