package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load as a snapshot file. Whatever the
// input, Load must not panic, and any error must wrap ErrCorrupt or
// ErrStaleSchema: those are the two errors a warm boot treats as "discard
// and boot cold". The seed corpus (testdata/fuzz/FuzzLoad) holds a real
// two-entry snapshot plus truncated and bit-flipped copies of it.
//
//	go test -run XXX -fuzz FuzzLoad -fuzztime 15s ./internal/persist/
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStaleSchema) {
			t.Fatalf("Load returned %v, want nil, ErrCorrupt or ErrStaleSchema", err)
		}
	})
}
