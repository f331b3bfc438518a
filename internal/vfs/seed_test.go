package vfs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSeedFromHost(t *testing.T) {
	src := t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "sub/deep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "top.txt"), []byte("top"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "sub/deep/leaf.bin"), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "sub/run.sh"), []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/sfs/host:abc", filepath.Join(src, "link")); err != nil {
		t.Fatal(err)
	}

	fs := New()
	cred := Cred{UID: 0}
	if err := fs.SeedFromHost(cred, src); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(cred, "top.txt")
	if err != nil || string(data) != "top" {
		t.Fatalf("top.txt: %q %v", data, err)
	}
	data, err = fs.ReadFile(cred, "sub/deep/leaf.bin")
	if err != nil || len(data) != 3 {
		t.Fatalf("leaf: %v %v", data, err)
	}
	id, _, err := fs.Resolve(cred, "sub/run.sh")
	if err != nil {
		t.Fatal(err)
	}
	attr, _ := fs.GetAttr(id)
	if attr.Mode&0o100 == 0 {
		t.Fatal("executable bit lost")
	}
	_, external, err := fs.Resolve(cred, "link")
	if err != nil || external != "/sfs/host:abc" {
		t.Fatalf("symlink: %q %v", external, err)
	}
	link, _, err := fs.Lookup(cred, fs.Root(), "link")
	if err != nil {
		t.Fatal(err)
	}
	if target, err := fs.Readlink(link); err != nil || target != "/sfs/host:abc" {
		t.Fatalf("seeded symlink: %q %v", target, err)
	}
}
