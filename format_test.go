package pac

import (
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pac/internal/acache"
	"pac/internal/autograd"
	"pac/internal/checkpoint"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// pinnedTensor fills a tensor from a fixed integer sequence, so the
// bytes below depend on nothing but the file formats.
func pinnedTensor(seed uint32, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	vals := make([]float32, n)
	x := seed
	for i := range vals {
		x = x*1664525 + 1013904223
		vals[i] = float32(int32(x>>8)) / (1 << 22)
	}
	vals[0] = float32(math.Copysign(0, -1))
	return tensor.FromSlice(vals, shape...)
}

// pinnedTech is a technique whose trainable parameters are fixed
// tensors; checkpoint.Save reads nothing else from it.
type pinnedTech struct{ params []*autograd.Variable }

func (p pinnedTech) Kind() peft.Kind                                    { return peft.ParallelAdapters }
func (p pinnedTech) Trainable() []*autograd.Variable                    { return p.params }
func (p pinnedTech) Forward(_, _ [][]int, _ []int, _ bool) *peft.Result { return nil }

// TestFileFormatsPinned: the PACK (fp32 and int8), PACS and PACC bytes
// written for fixed inputs match the CRC-32 recorded when the formats
// were frozen. A refactor of the codecs that changes one byte would
// strand every file already on disk; this test says so first. The sum
// is CRC-32C: PACK and PACC files end in their own CRC-32 (IEEE), and
// the IEEE CRC of any such file is the same constant residue.
func TestFileFormatsPinned(t *testing.T) {
	dir := t.TempDir()
	cfg := model.Config{Vocab: 64, Layers: 2, Heads: 2, Hidden: 16, FFDim: 32, MaxSeq: 16, NumClasses: 2}
	tech := pinnedTech{params: []*autograd.Variable{
		autograd.NewParam(pinnedTensor(1, 4, 3)),
		autograd.NewParam(pinnedTensor(2, 5)),
		autograd.NewParam(pinnedTensor(3, 2, 1, 3)),
	}}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	fp32 := filepath.Join(dir, "fp32.pack")
	if err := checkpoint.Save(fp32, "pinned", tech, cfg, 11); err != nil {
		t.Fatal(err)
	}
	int8 := filepath.Join(dir, "int8.pack")
	if err := checkpoint.SaveQuantized(int8, "pinned", tech, cfg, 11); err != nil {
		t.Fatal(err)
	}

	snaps, err := checkpoint.NewSnapshotter(filepath.Join(dir, "snaps"), 1)
	if err != nil {
		t.Fatal(err)
	}
	snaps.Write(&checkpoint.Snapshot{
		Fingerprint: checkpoint.Fingerprint(cfg), Task: "sst-2", Seed: -5,
		Epoch: 2, Step: 9, Stages: 2, Lanes: 3,
		Adapters: []*tensor.Tensor{pinnedTensor(4, 3, 2), pinnedTensor(5, 7)},
		OptGroups: []checkpoint.OptGroup{
			{Step: 4, Tensors: []*tensor.Tensor{pinnedTensor(6, 2, 2)}},
			{Step: 5, Tensors: []*tensor.Tensor{pinnedTensor(7, 1), pinnedTensor(8, 1, 1, 1, 2)}},
		},
		CacheTaps: 4,
		CacheSums: map[int]uint32{17: 0xdeadbeef, 2: 7, 90: 0},
	})
	if err := snaps.Close(); err != nil {
		t.Fatal(err)
	}

	cache, err := acache.NewDiskStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	entry := acache.Entry{pinnedTensor(9, 1, 4, 3), pinnedTensor(10, 1, 1, 3), pinnedTensor(11, 2)}
	if err := cache.Put(3, entry); err != nil {
		t.Fatal(err)
	}

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, c := range []struct {
		name string
		path string
		want uint32
	}{
		{"fp32 PACK", fp32, 0x8fd0f3ca},
		{"int8 PACK", int8, 0x6aa911f4},
		{"PACS", filepath.Join(dir, "snaps", "snap-00000000.pacs"), 0x18d9be65},
		{"PACC entry file", filepath.Join(dir, "cache", "3.pac"), 0xd57be03d},
	} {
		b := read(c.path)
		if got := crc32.Checksum(b, castagnoli); got != c.want {
			t.Errorf("%s: %d bytes with CRC-32C %#08x, pinned %#08x: the format changed", c.name, len(b), got, c.want)
		}
	}
}
