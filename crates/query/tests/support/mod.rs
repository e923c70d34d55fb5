pub mod golden_forms;
