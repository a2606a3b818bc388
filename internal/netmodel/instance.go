package netmodel

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/interdc/postcard/internal/jsonio"
)

// Instance is the JSON-serializable description of one offline problem:
// a network plus a set of files. It is the interchange format of
// cmd/postcard-solve and of test fixtures.
type Instance struct {
	Datacenters int            `json:"datacenters"`
	Links       []InstanceLink `json:"links"`
	Files       []InstanceFile `json:"files"`
}

// InstanceLink describes one directed link.
type InstanceLink struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	Price    float64 `json:"price"`
	Capacity float64 `json:"capacity"`
}

// InstanceFile describes one file (the paper's four-tuple plus release).
type InstanceFile struct {
	ID       int     `json:"id"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Size     float64 `json:"size"`
	Deadline int     `json:"deadline"`
	Release  int     `json:"release"`
}

// ReadInstance decodes an Instance from JSON. The input must hold the one
// instance object and nothing else but whitespace.
func ReadInstance(r io.Reader) (*Instance, error) {
	var inst Instance
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := jsonio.DecodeOne(dec, &inst); err != nil {
		return nil, fmt.Errorf("netmodel: decoding instance: %w", err)
	}
	return &inst, nil
}

// WriteJSON encodes the instance with indentation.
func (inst *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(inst); err != nil {
		return fmt.Errorf("netmodel: encoding instance: %w", err)
	}
	return nil
}

// Build materializes the instance into a Network and validated Files.
func (inst *Instance) Build() (*Network, []File, error) {
	nw, err := NewNetwork(inst.Datacenters)
	if err != nil {
		return nil, nil, err
	}
	for _, l := range inst.Links {
		if err := nw.SetLink(DC(l.From), DC(l.To), l.Price, l.Capacity); err != nil {
			return nil, nil, err
		}
	}
	files := make([]File, 0, len(inst.Files))
	for _, f := range inst.Files {
		file := File{
			ID:       f.ID,
			Src:      DC(f.Src),
			Dst:      DC(f.Dst),
			Size:     f.Size,
			Deadline: f.Deadline,
			Release:  f.Release,
		}
		if err := file.Validate(nw); err != nil {
			return nil, nil, err
		}
		files = append(files, file)
	}
	seen := make(map[int]bool, len(files))
	for _, f := range files {
		if seen[f.ID] {
			return nil, nil, fmt.Errorf("netmodel: duplicate file ID %d in instance", f.ID)
		}
		seen[f.ID] = true
	}
	return nw, files, nil
}

// InstanceOf captures an existing network and file set as an Instance.
func InstanceOf(nw *Network, files []File) *Instance {
	inst := &Instance{Datacenters: nw.NumDCs()}
	nw.Links(func(l Link, price, capacity float64) {
		inst.Links = append(inst.Links, InstanceLink{
			From: int(l.From), To: int(l.To), Price: price, Capacity: capacity,
		})
	})
	for _, f := range files {
		inst.Files = append(inst.Files, InstanceFile{
			ID: f.ID, Src: int(f.Src), Dst: int(f.Dst),
			Size: f.Size, Deadline: f.Deadline, Release: f.Release,
		})
	}
	return inst
}
