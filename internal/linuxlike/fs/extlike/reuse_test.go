package extlike_test

import (
	"fmt"
	"sync"
	"testing"

	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// TestUnlinkCreateInodeReuse races unlink against create in separate
// directories, so freed inode numbers are reallocated at once. Unlink
// must release a number only after its last write of the dead inode;
// otherwise a create that reuses the number has its new inode
// overwritten with nlink 0, and the file turns ESTALE or fsck finds a
// reachable inode with nlink 0.
func TestUnlinkCreateInodeReuse(t *testing.T) {
	dev := newDevice(t, 2048)
	v, setup := mkfsAndMount(t, dev, &extlike.FS{})
	const workers, rounds = 4, 200
	for w := 0; w < workers; w++ {
		if err := v.Mkdir(setup, fmt.Sprintf("/d%d", w)); err != kbase.EOK {
			t.Fatalf("Mkdir: %v", err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := kbase.NewTask()
			for r := 0; r < rounds; r++ {
				path := fmt.Sprintf("/d%d/f", w)
				fd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					t.Errorf("open %s: %v", path, err)
					return
				}
				if err := v.CloseAs(task, fd); err != kbase.EOK {
					t.Errorf("close %s: %v", path, err)
					return
				}
				if err := v.Unlink(task, path); err != kbase.EOK {
					t.Errorf("unlink %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := v.Unmount(setup, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	rep, err := extlike.Fsck(dev)
	if err != kbase.EOK {
		t.Fatalf("Fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("volume inconsistent after unlink/create race:\n%s", rep.Summary())
	}
}
