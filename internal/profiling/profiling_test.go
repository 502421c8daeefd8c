package profiling

import (
	"path/filepath"
	"testing"
)

func TestStartUnwritableCPUPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"), ""); err == nil {
		t.Fatal("unwritable cpu profile path should fail")
	}
}
