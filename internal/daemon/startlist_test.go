package daemon

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// fakeComp builds a component that records its start/stop into a shared
// journal.
func fakeComp(name string, journal *[]string, startErr, stopErr error) component {
	return component{
		name: name,
		start: func(context.Context) error {
			*journal = append(*journal, "start:"+name)
			return startErr
		},
		stop: func(context.Context) error {
			*journal = append(*journal, "stop:"+name)
			return stopErr
		},
	}
}

func TestStartListStartsInOrderStopsInReverse(t *testing.T) {
	var journal []string
	l := startList{comps: []component{
		fakeComp("store", &journal, nil, nil),
		fakeComp("health", &journal, nil, nil),
		fakeComp("router", &journal, nil, nil),
		fakeComp("listener", &journal, nil, nil),
	}}
	if err := l.start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "store,health,router,listener" {
		t.Fatalf("start order %q", got)
	}
	if err := l.stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A second stop (double drain) finds nothing started.
	if err := l.stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"start:store", "start:health", "start:router", "start:listener",
		"stop:listener", "stop:router", "stop:health", "stop:store",
	}
	if !reflect.DeepEqual(journal, want) {
		t.Fatalf("journal %v, want %v", journal, want)
	}
}

func TestStartListFailedStartUnwindsStartedComponents(t *testing.T) {
	var journal []string
	l := startList{comps: []component{
		fakeComp("a", &journal, nil, nil),
		fakeComp("b", &journal, errors.New("boom"), nil),
		fakeComp("c", &journal, nil, nil),
	}}
	err := l.start(context.Background())
	if err == nil || !strings.Contains(err.Error(), `start "b"`) {
		t.Fatalf("err = %v", err)
	}
	// a started and must have been stopped again; b never counted as
	// started so only its failed start appears; c was never reached.
	want := []string{"start:a", "start:b", "stop:a"}
	if !reflect.DeepEqual(journal, want) {
		t.Fatalf("journal %v, want %v", journal, want)
	}
	if l.ready() {
		t.Fatal("a failed start must not report ready")
	}
}

func TestStartListReadyAggregatesReporters(t *testing.T) {
	var journal []string
	gatedReady := false
	gated := fakeComp("gated", &journal, nil, nil)
	gated.ready = func() bool { return gatedReady }
	l := startList{comps: []component{fakeComp("plain", &journal, nil, nil), gated}}
	if l.ready() {
		t.Fatal("unstarted list reported ready")
	}
	if err := l.start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.ready() {
		t.Fatal("ready while a component says not ready")
	}
	gatedReady = true
	if !l.ready() {
		t.Fatal("not ready though every component is")
	}
	if err := l.stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.ready() {
		t.Fatal("stopped list reported ready")
	}
}

func TestStartListStopJoinsErrorsAndStopsEveryone(t *testing.T) {
	var journal []string
	l := startList{comps: []component{
		fakeComp("a", &journal, nil, errors.New("a failed")),
		fakeComp("b", &journal, nil, errors.New("b failed")),
	}}
	if err := l.start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := l.stop(context.Background())
	if err == nil || !strings.Contains(err.Error(), "a failed") || !strings.Contains(err.Error(), "b failed") {
		t.Fatalf("stop errors not joined: %v", err)
	}
	// Both stops ran despite both failing.
	want := []string{"start:a", "start:b", "stop:b", "stop:a"}
	if !reflect.DeepEqual(journal, want) {
		t.Fatalf("journal %v, want %v", journal, want)
	}
}
