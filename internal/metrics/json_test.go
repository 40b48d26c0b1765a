package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTimeSeriesJSONRoundTrip(t *testing.T) {
	var ts TimeSeries
	ts.Add(time.Minute, 0.5)
	ts.Add(90*time.Second, 0.75)
	data, err := json.Marshal(&ts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"t_min":1`) {
		t.Fatalf("json = %s", data)
	}
	var back TimeSeries
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 {
		t.Fatalf("round trip lost points: %d", back.N())
	}
	if p := back.Points()[1]; p.T != 90*time.Second || p.V != 0.75 {
		t.Fatalf("point = %+v", p)
	}
}

func TestCDFJSON(t *testing.T) {
	var c CDF
	c.Add(1)
	c.Add(2)
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"x":1,"y":0.5},{"x":2,"y":1}]`
	if string(data) != want {
		t.Fatalf("json = %s, want %s", data, want)
	}
}

func TestScatterJSON(t *testing.T) {
	var s Scatter
	s.Add(1, 2, "a")
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"x":1,"y":2,"series":"a"}]`
	if string(data) != want {
		t.Fatalf("json = %s", data)
	}
}

func TestEmptyCollectionsMarshal(t *testing.T) {
	var ts TimeSeries
	var c CDF
	var s Scatter
	for _, v := range []interface{ MarshalJSON() ([]byte, error) }{&ts, &c, &s} {
		if data, err := v.MarshalJSON(); err != nil || string(data) != "[]" {
			t.Errorf("empty marshal = %s, %v", data, err)
		}
	}
}

// UnmarshalJSON accepts the format produced by MarshalJSON.
func (ts *TimeSeries) UnmarshalJSON(data []byte) error {
	type pt struct {
		TMin float64 `json:"t_min"`
		V    float64 `json:"v"`
	}
	var in []pt
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	ts.points = ts.points[:0]
	for _, p := range in {
		ts.points = append(ts.points, TimePoint{
			T: time.Duration(p.TMin * float64(time.Minute)),
			V: p.V,
		})
	}
	return nil
}
