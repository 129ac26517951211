//! Driving a PIM memory bank directly through its instruction set.
//!
//! The bank control unit of Fig. 6 "decodes the incoming instructions and
//! determines the operation mode of morphable subarrays". This example
//! writes the control program for one inference layer by hand: program the
//! weights, morph the subarray into compute mode, stream input vectors from
//! a memory subarray through it with the ReLU peripheral enabled, buffer
//! the results, and finally morph the subarray back into memory mode and
//! use it as plain storage.
//!
//! ```text
//! cargo run --example bank_program --release
//! ```
#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on a setup error; that is its error path"
)]

use reram_core::compiler::{CompiledNetwork, NetStage};
use reram_core::isa::{Instruction, SubarrayMode};
use reram_core::subarray::Bank;
use reram_crossbar::CrossbarConfig;
use reram_nn::activations::Activation;
use reram_tensor::{Matrix, Shape2};

fn main() {
    let mut bank = Bank::new(2, 4, &CrossbarConfig::default());

    // A small FC layer: 6 outputs from 8 inputs.
    let w = Matrix::from_fn(Shape2::new(6, 8), |r, c| {
        (((r * 5 + c * 3) % 11) as f32 - 5.0) / 5.0
    });
    let inputs: Vec<Vec<f32>> = (0..3)
        .map(|k| (0..8).map(|i| ((i + k) % 5) as f32 / 5.0 - 0.4).collect())
        .collect();

    // Control program: one setup phase, then one Compute per input vector.
    let mut program = vec![
        Instruction::Program {
            subarray: 0,
            weights: w.clone(),
        },
        Instruction::SetMode {
            subarray: 0,
            mode: SubarrayMode::Compute,
        },
    ];
    for x in &inputs {
        program.push(Instruction::LoadMem {
            mem: 0,
            data: x.clone(),
        });
        program.push(Instruction::Compute {
            subarray: 0,
            src_mem: 0,
            dst_mem: 1,
            activation: Some(Activation::Relu),
        });
        program.push(Instruction::StoreBuffer { src_mem: 1 });
        program.push(Instruction::ReadMem { mem: 1 });
    }
    // Morph back to memory mode and use the same subarray as storage.
    program.push(Instruction::SetMode {
        subarray: 0,
        mode: SubarrayMode::Memory,
    });
    program.push(Instruction::MemWrite {
        subarray: 0,
        data: vec![1.0, 2.0, 3.0],
    });
    program.push(Instruction::MemRead { subarray: 0 });

    let outputs = bank.run(program);
    for (i, x) in inputs.iter().enumerate() {
        let want: Vec<f32> = w.matvec(x).iter().map(|v| v.max(0.0)).collect();
        println!("input {i}: crossbar {:?}", round3(&outputs[i]));
        println!("         exact    {:?}", round3(&want));
    }
    println!(
        "memory-mode readback: {:?}",
        outputs.last().expect("readback")
    );

    let stats = bank.stats();
    println!(
        "\nbank stats: {} instructions, {} MVMs, {} programs, {} mem elems, {} buffer elems, {} mode switches",
        stats.instructions,
        stats.mvms,
        stats.programs,
        stats.mem_traffic,
        stats.buffer_traffic,
        bank.morphable(0).mode_switches()
    );

    // Same thing, compiled: the control unit's orchestration generated
    // automatically from a layer stack.
    println!("\n-- compiled three-layer MLP --");
    let mut mlp = CompiledNetwork::compile(
        (8, 1, 1),
        vec![
            NetStage::Fc {
                weights: Matrix::from_fn(Shape2::new(10, 8), |r, c| {
                    (((r * 7 + c * 5) % 13) as f32 - 6.0) / 8.0
                }),
                activation: Some(Activation::Relu),
            },
            NetStage::Fc {
                weights: Matrix::from_fn(Shape2::new(6, 10), |r, c| {
                    (((r * 5 + c * 3 + 1) % 13) as f32 - 6.0) / 8.0
                }),
                activation: Some(Activation::Relu),
            },
            NetStage::Fc {
                weights: Matrix::from_fn(Shape2::new(3, 6), |r, c| {
                    (((r * 3 + c * 7 + 2) % 13) as f32 - 6.0) / 8.0
                }),
                activation: None,
            },
        ],
        &CrossbarConfig::default(),
    )
    .expect("layer stack compiles");
    let input: Vec<f32> = (0..8).map(|i| (i % 5) as f32 / 5.0 - 0.4).collect();
    let got = mlp.forward(&input);
    let want = mlp.forward_exact(&input);
    println!("crossbar: {:?}", round3(&got));
    println!("exact:    {:?}", round3(&want));
    let s = mlp.stats();
    println!(
        "compiled-run stats: {} instructions, {} MVMs, {} programs",
        s.instructions, s.mvms, s.programs
    );

    // Training on the bank: forward MVMs and error back-propagation both
    // run as instructions (the transposed grid serves the backward pass),
    // with ProgramTraining write-backs as the weight-update cycles.
    println!("\n-- bank-level training (MSE regression) --");
    let mut trainee = CompiledNetwork::compile(
        (4, 1, 1),
        vec![
            NetStage::Fc {
                weights: Matrix::from_fn(Shape2::new(6, 4), |r, c| {
                    (((r * 7 + c * 5) % 11) as f32 - 5.0) / 10.0
                }),
                activation: Some(Activation::Relu),
            },
            NetStage::Fc {
                weights: Matrix::from_fn(Shape2::new(2, 6), |r, c| {
                    (((r * 3 + c * 7 + 1) % 11) as f32 - 5.0) / 10.0
                }),
                activation: None,
            },
        ],
        &CrossbarConfig::default(),
    )
    .expect("layer stack compiles");
    let x = [0.4f32, -0.2, 0.1, 0.3];
    let target = [0.5f32, -0.25];
    for step in 0..20 {
        let loss = trainee
            .train_step(&x, &target, 0.2)
            .expect("an FC/ReLU stack trains on the bank");
        if step % 5 == 0 || step == 19 {
            println!("  step {step:>2}: loss {loss:.5}");
        }
    }
    let ts = trainee.stats();
    println!(
        "training stats: {} instructions, {} MVMs, {} grid programs",
        ts.instructions, ts.mvms, ts.programs
    );
}

fn round3(v: &[f32]) -> Vec<f32> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
