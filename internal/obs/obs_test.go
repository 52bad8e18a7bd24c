package obs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReportsWriteError: a render into a file that takes no bytes
// fails WriteFile. /dev/full refuses every write with ENOSPC.
func TestWriteFileReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	err := WriteFile("/dev/full", func(w io.Writer) error {
		_, err := io.WriteString(w, "{}\n")
		return err
	})
	if err == nil {
		t.Fatal("WriteFile to /dev/full returned nil")
	}
}

// TestWriteFileReturnsRenderError: a failing render still closes the file,
// and its error, not Close's, is the one returned.
func TestWriteFileReturnsRenderError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	boom := errors.New("boom")
	var file *os.File
	err := WriteFile(path, func(w io.Writer) error {
		file = w.(*os.File)
		return boom
	})
	if err != boom {
		t.Fatalf("WriteFile returned %v, want the render error", err)
	}
	if err := file.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("file left open: a second Close returned %v", err)
	}
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "ok"); return err }); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "ok" {
		t.Fatalf("read back %q, %v", b, err)
	}
}
