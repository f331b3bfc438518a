package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// runMeta is recorded with every result.
func runMeta(rc runConfig) map[string]any {
	return map[string]any{
		"commit":        commit(),
		"source_sha256": sourceHash(),
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"store_fs":      fsType(rc.workdir),
		"workload_seed": rc.seed,
		"key_seed":      keySeed,
		"login_rate":    loginFull.rate,
		"seconds":       rc.dur.Seconds(),
		"trace":         rc.trace,
		"encryption":    true,
	}
}

// commit is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash identifies the source tree measured when there is no
// commit to name: a SHA-256 over the module's Go files and go.mod,
// walked from the module root (the parent of this package's directory,
// or the working directory).
func sourceHash() string {
	root := "."
	if _, err := os.Stat("go.mod"); err != nil {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
