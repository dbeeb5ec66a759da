package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment describes where the run happened, so figures taken on a
// different disk or CPU count are not compared unknowingly: the commit (or,
// outside a git checkout, a hash of the Go sources), the Go version, CPU
// counts, the filesystem under the svc data directories and a short fsync
// probe on it.
func environment(c config) (string, error) {
	dir := c.scratch("fsprobe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	fsync, err := fsyncP50(dir)
	if err != nil {
		return "", err
	}
	src, err := sourceHash(c.root)
	if err != nil {
		return "", err
	}
	return joinKV([][2]string{
		{"commit", gitCommit(c.root)},
		{"source_sha256", src[:16]},
		{"go", runtime.Version()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"datadir_fs", fsType(dir)},
		{"fsync_p50_us", fmt.Sprintf("%.1f", fsync)},
	}), nil
}

// gitCommit returns HEAD's hash, or "none" outside a git checkout.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file under root except the
// benchmark's own scratch directory.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	return fmt.Sprintf("%x", h.Sum(nil)), err
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794c7630: "overlay", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncP50 returns the median latency, in microseconds, of 4 KiB
// write+fsync pairs in dir.
func fsyncP50(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 4096)
	var lat []int64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return us(quantile(lat, 0.5)), nil
}
