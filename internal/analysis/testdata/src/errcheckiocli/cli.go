// Package cli exercises the errcheck-io rule outside cmd/. The golden test
// loads it under the import path spcd/internal/cli, the CLIs' shared front
// end, where the rule applies.
package cli

import (
	"fmt"
	"io"
	"os"
)

// writeFileDroppedClose loses the close error, and with it any buffered
// data the close failed to flush.
func writeFileDroppedClose(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want "error from f.Close\(\) is discarded"
	return write(f)
}

// writeFileOK checks every write and close error.
func writeFileOK(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
