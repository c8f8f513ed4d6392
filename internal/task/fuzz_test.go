package task

import (
	"bytes"
	"encoding/json"
	"testing"

	"fedsched/internal/dag"
)

// refTask and refDAG mirror the task and DAG wire forms for encoding/json
// alone: decoding into them never reaches a fast path, so they are the
// reference the fast decoder and encoder are checked against.
type refTask struct {
	Name string  `json:"name,omitempty"`
	D    Time    `json:"deadline"`
	T    Time    `json:"period"`
	G    *refDAG `json:"dag"`
}

type refDAG struct {
	Vertices []refVertex `json:"vertices"`
	Edges    [][2]int    `json:"edges"`
}

type refVertex struct {
	Name string `json:"name,omitempty"`
	WCET Time   `json:"wcet"`
	Type int    `json:"type,omitempty"`
}

// refDecode is the decode path the codecs had before their fast paths:
// encoding/json into the wire structs, then Build and New.
func refDecode(data []byte) (*DAGTask, error) {
	var rt refTask
	if err := json.Unmarshal(data, &rt); err != nil {
		return nil, err
	}
	var g *dag.DAG
	if rt.G != nil {
		b := dag.NewBuilder(len(rt.G.Vertices))
		for _, v := range rt.G.Vertices {
			b.AddTypedVertex(v.Name, v.WCET, v.Type)
		}
		for _, e := range rt.G.Edges {
			b.AddEdge(e[0], e[1])
		}
		var err error
		if g, err = b.Build(); err != nil {
			return nil, err
		}
	}
	return New(rt.Name, g, rt.D, rt.T)
}

// refEncode is the encode path the codecs had before their fast paths.
func refEncode(tk *DAGTask) ([]byte, error) {
	rd := &refDAG{Vertices: []refVertex{}, Edges: tk.G.Edges()}
	for v := 0; v < tk.G.N(); v++ {
		x := tk.G.Vertex(v)
		rd.Vertices = append(rd.Vertices, refVertex{Name: x.Name, WCET: x.WCET, Type: x.Type})
	}
	return json.Marshal(refTask{Name: tk.Name, D: tk.D, T: tk.T, G: rd})
}

func sameTask(a, b *DAGTask) bool {
	return a.Name == b.Name && a.D == b.D && a.T == b.T && a.G.Equal(b.G)
}

// FuzzDecodeFastPath differentially checks the single-pass codec against
// plain encoding/json. Wherever the fast decoder accepts, encoding/json must
// accept too and produce an equal task (name, D, T, and the graph with its
// vertex names and types); UnmarshalJSON as a whole must agree with
// encoding/json on acceptance and value; and the direct encoder must write
// exactly the bytes encoding/json writes, which decode back to the same task.
func FuzzDecodeFastPath(f *testing.F) {
	const dagBody = `{"vertices":[{"name":"a","wcet":2},{"wcet":3,"type":1}],"edges":[[0,1]]}`
	f.Add([]byte(`{"name":"t","deadline":9,"period":10,"dag":` + dagBody + `}`))
	f.Add([]byte(` { "period" : 10 , "dag" : ` + dagBody + ` , "deadline" : 9 } `))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := refDecode(data)
		fast, fastOK := decodeWire(data)
		if fastOK {
			if refErr != nil {
				t.Fatalf("fast path accepted what encoding/json rejects (%v)", refErr)
			}
			if !sameTask(fast, ref) {
				t.Fatalf("fast path decoded %v, encoding/json %v", fast, ref)
			}
		}
		var got DAGTask
		err := got.UnmarshalJSON(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("UnmarshalJSON err = %v, encoding/json err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameTask(&got, ref) {
			t.Fatalf("UnmarshalJSON decoded %v, encoding/json %v", &got, ref)
		}
		enc, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEncode(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("MarshalJSON wrote\n%s\nencoding/json writes\n%s", enc, want)
		}
		var back DAGTask
		if err := back.UnmarshalJSON(enc); err != nil || !sameTask(&back, &got) {
			t.Fatalf("encode/decode round trip: err %v, equal %t", err, err == nil && sameTask(&back, &got))
		}
	})
}
